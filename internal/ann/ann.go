// Package ann is the approximate candidate generator behind the "ann"
// similarity backend: a signed-random-projection LSH index over the rows
// of a dense matrix. Rows hash into 2^Bits buckets by the sign pattern of
// Bits random projections; a query scans its own bucket plus the
// cheapest perturbed buckets in multi-probe order (Lv et al., VLDB'07)
// and exactly re-ranks the gathered pool by inner product. Probing every
// bucket degrades gracefully into a brute-force scan, which is the
// exactness escape hatch: a full-probe index reproduces the blocked
// exact top-k scan bit for bit.
//
// The hash is data-aware: the index centers the fitted rows and draws
// its hyperplanes through a sampled-covariance whitening rotation, so
// every bit splits the data roughly in half even when the rows collapse
// toward a dominant direction (the GCN failure mode on low-signal
// graphs). Buckets that still come out oversized are re-hashed one level
// deeper with a fresh locally-centered plane set (see balance.go), and a
// per-query pool cap can bound the gathered candidate pool in
// margin-probe order. Params.Unbalanced restores the raw SRP index for
// A/B comparison.
//
// Refitting the same-shaped matrix into an index (the fine-tuning loop)
// is incremental: the planes and whitening are frozen at the first Fit,
// and only rows that moved beyond Params.RefitEps since their last
// recode are re-projected — unmoved rows keep their codes, and the
// bucket arrays are rebuilt in place.
//
// The package is metric-agnostic — it ranks by plain inner product — so
// the caller owns the metric: the align layer centers and row-normalises
// embeddings first, turning inner products into Pearson correlations.
// Everything is deterministic: the hyperplanes are drawn from the seed,
// bucket assembly is a stable counting sort, probe order breaks cost
// ties by perturbation mask, and re-ranking scores every candidate with
// the same sequential dot product as the dense kernel, so results are
// identical for every worker count.
package ann

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/kbest"
	"github.com/htc-align/htc/internal/par"
)

// MaxBits caps the code width: the bucket-offset table costs O(2^Bits),
// so 20 bits (1M buckets, 4 MB of offsets) is the widest code worth
// paying for before the table dominates the candidate structures.
const MaxBits = 20

// defaultRefitEps is the relative row movement below which a refit keeps
// a row's code instead of re-projecting it. A unit-norm row moving 2% in
// L2 tilts by about a degree — only bits whose margin is within that
// sliver can go stale, and those are exactly the buckets the multi-probe
// sequence visits first anyway, so candidate recall is unaffected (see
// TestRefitDriftKeepsRecall).
const defaultRefitEps = 0.02

// Params fix an index's geometry. The align/core layers resolve zero
// values to AutoBits/AutoProbes before building an index.
type Params struct {
	// Bits is the code width b ∈ [1, MaxBits]: rows hash into 2^b
	// buckets by the sign pattern of b random projections.
	Bits int
	// Probes is the minimum number of buckets scanned per query, visited
	// in multi-probe order (cheapest perturbations of the query's own
	// code first). A query keeps probing past this floor until it has
	// gathered at least k candidates, so result rows are always full.
	// Probes ≥ 2^Bits selects the brute-force exact path.
	Probes int
	// PoolCap, when positive, bounds the candidate pool gathered per
	// query to max(k, PoolCap) rows: buckets arrive in margin order
	// (cheapest perturbations first), so the cap truncates the
	// costliest, least promising buckets. 0 leaves the pool unbounded.
	PoolCap int
	// RefitEps tunes the incremental refit: re-fitting a same-shaped
	// matrix re-projects only the rows whose relative L2 movement since
	// their last recode exceeds the epsilon. 0 selects defaultRefitEps;
	// a negative value disables reuse entirely (every Fit recodes every
	// row — the reference the refit tests compare against).
	RefitEps float64
	// Unbalanced disables the data-aware balancing — centering, the
	// whitening rotation and the hierarchical re-hash of oversized
	// buckets — restoring the raw SRP index. Kept as the A/B baseline
	// for the skew benchmarks; leave it false in production.
	Unbalanced bool
	// Seed drives the hyperplane draw; equal seeds give identical
	// indexes.
	Seed int64
}

// Exact reports whether the parameters probe every bucket, i.e. select
// the brute-force scan that reproduces the exact top-k bit for bit.
func (p Params) Exact() bool { return p.Probes >= 1<<p.Bits }

// AutoBits picks a code width for n indexed rows, targeting a mean
// bucket occupancy of ~16 rows and clamping to [4, MaxBits].
func AutoBits(n int) int {
	b := 4
	for b < MaxBits && n > 16<<b {
		b++
	}
	return b
}

// AutoProbes picks a default probe count for a code width: 16·bits,
// capped at the bucket count. The linear-in-bits schedule keeps measured
// candidate recall ≥ 0.95 on embedding-like inputs while the probed
// bucket fraction shrinks as the input grows — every bucket at ≤ 6 bits
// (exact), ~28% at 9 bits, ~2.5% at 13 bits (100k rows).
func AutoProbes(bits int) int {
	p := 16 * bits
	if full := 1 << bits; p > full {
		p = full
	}
	return p
}

// Result holds every query's top-k ids and scores; rows are sorted by
// descending score with ties broken by lower id — the same order the
// exact blocked scan produces. It is the shared kbest layout, the same
// type as align.Candidates, so that layer adopts it as-is.
type Result = kbest.Lists

// Index is a signed-random-projection LSH index over the rows of one
// matrix. Fit hashes the rows; TopK answers batched queries. An Index is
// reusable across Fit calls (a fine-tuning loop re-fits each iteration's
// embeddings into the same scratch, incrementally) but not concurrently
// usable.
type Index struct {
	p    Params
	data *dense.Matrix // fitted rows (borrowed, not copied)
	n    int

	planes *dense.Matrix // Bits×d effective hyperplanes: G·T, whitened unless Unbalanced
	bias   []float64     // per-bit centering offsets μ·w̃ (zero when Unbalanced)
	xform  *dense.Matrix // d×d whitening transform T (nil when Unbalanced)
	snap   *dense.Matrix // row values as of each row's last recode
	proj   *dense.Matrix // n×Bits row projections (scratch)
	codes  []uint32      // per-row bucket code
	start  []int32       // CSR bucket offsets, len 2^Bits+1
	order  []int32       // row ids grouped by bucket, stable in row order
	cursor []int32       // counting-sort scratch

	subs      []subTable // second-level tables of re-hashed oversized buckets
	subOf     []int32    // per bucket: index into subs, or -1
	subBudget int        // max rows a probed re-hashed bucket contributes
	subCode   []uint32   // sub-rehash scratch
	subTmp    []int32
	subCursor []int32
	subMean   []float64

	workers []searcher // per-worker query scratch
	stats   Stats
}

// New validates the parameters and returns an empty index; Fit must run
// before TopK.
func New(p Params) *Index {
	if p.Bits < 1 || p.Bits > MaxBits {
		panic(fmt.Sprintf("ann: Bits = %d outside [1, %d]", p.Bits, MaxBits))
	}
	if p.Probes < 1 {
		panic(fmt.Sprintf("ann: Probes = %d < 1", p.Probes))
	}
	return &Index{p: p}
}

// Params returns the index geometry.
func (ix *Index) Params() Params { return ix.p }

// Stats returns a copy of the index's cumulative skew-observability
// counters (see Stats).
func (ix *Index) Stats() Stats {
	st := ix.stats
	st.Occupancy = append([]int64(nil), ix.stats.Occupancy...)
	return st
}

// Fit (re)hashes the rows of data into the index. The matrix is
// borrowed: it must stay unmodified until the next Fit. On the exact
// path hashing is skipped entirely — a full-probe query scans every row
// anyway.
//
// The first Fit freezes the hash geometry: hyperplanes are drawn from
// the seed and rotated/centered against the fitted data (see
// buildTransform). A later Fit of a same-shaped matrix is incremental —
// it re-projects only the rows that moved beyond RefitEps since their
// last recode, reuses every other code, and rebuilds the bucket arrays
// in place. A shape change rebuilds the index from scratch.
func (ix *Index) Fit(data *dense.Matrix, workers int) {
	ix.data = data
	ix.n = data.Rows
	ix.stats.Fits++
	if ix.p.Exact() || ix.n == 0 {
		return
	}
	ix.stats.Rows += int64(ix.n)
	fresh := ix.planes == nil || ix.planes.Cols != data.Cols ||
		ix.snap == nil || ix.snap.Rows != ix.n
	if fresh {
		ix.buildTransform(data)
	}
	ix.codes = growInt32sAsU32(ix.codes, ix.n)
	if fresh || ix.p.RefitEps < 0 {
		// Full (re)projection — the kernel is deterministic for every
		// worker count, so the codes are too.
		ix.proj = dense.Ensure(ix.proj, ix.n, ix.p.Bits)
		dense.MulBTInto(ix.proj, data, ix.planes, workers)
		par.For(workers, ix.n, ix.p.Bits, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var c uint32
				for j, v := range ix.proj.Row(i) {
					if v-ix.bias[j] >= 0 {
						c |= 1 << uint(j)
					}
				}
				ix.codes[i] = c
			}
		})
		ix.snap = dense.Ensure(ix.snap, ix.n, data.Cols)
		ix.snap.CopyFrom(data)
		ix.stats.Recoded += int64(ix.n)
	} else {
		ix.refit(data, workers)
	}
	ix.buildBuckets()
	ix.buildSubs()
}

// refit is the incremental path of Fit: rows whose relative movement
// since their last recode stays within the epsilon keep their codes;
// the rest are re-projected one by one with the same sequential dot
// product as the batch kernel, so a partial recode is bit-identical to
// a full one.
func (ix *Index) refit(data *dense.Matrix, workers int) {
	eps := ix.p.RefitEps
	if eps == 0 {
		eps = defaultRefitEps
	}
	eps2 := eps * eps
	nbits := ix.p.Bits
	var recoded atomic.Int64
	par.For(workers, ix.n, 2*data.Cols*(nbits+1), func(lo, hi int) {
		var rc int64
		for i := lo; i < hi; i++ {
			row, old := data.Row(i), ix.snap.Row(i)
			var d2, n2 float64
			for l, v := range row {
				dl := v - old[l]
				d2 += dl * dl
				n2 += v * v
			}
			if d2 <= eps2*n2 {
				continue
			}
			var c uint32
			for j := 0; j < nbits; j++ {
				if dot(row, ix.planes.Row(j))-ix.bias[j] >= 0 {
					c |= 1 << uint(j)
				}
			}
			ix.codes[i] = c
			copy(old, row)
			rc++
		}
		recoded.Add(rc)
	})
	rc := recoded.Load()
	ix.stats.Recoded += rc
	ix.stats.Reused += int64(ix.n) - rc
}

// buildBuckets (re)assembles the CSR buckets from the codes — a stable
// counting sort: offsets, then rows in ascending id order within each
// bucket — and refreshes the last-fit occupancy statistics.
func (ix *Index) buildBuckets() {
	nb := 1 << ix.p.Bits
	ix.start = growInt32s(ix.start, nb+1)
	ix.cursor = growInt32s(ix.cursor, nb)
	for i := range ix.start[:nb+1] {
		ix.start[i] = 0
	}
	for _, c := range ix.codes[:ix.n] {
		ix.start[c+1]++
	}
	for b := 0; b < nb; b++ {
		ix.start[b+1] += ix.start[b]
	}
	copy(ix.cursor, ix.start[:nb])
	ix.order = growInt32s(ix.order, ix.n)
	for i, c := range ix.codes[:ix.n] {
		ix.order[ix.cursor[c]] = int32(i)
		ix.cursor[c]++
	}
	ix.stats.Buckets = nb
	ix.stats.MaxBucket = 0
	if ix.stats.Occupancy == nil {
		ix.stats.Occupancy = make([]int64, 33)
	}
	for i := range ix.stats.Occupancy {
		ix.stats.Occupancy[i] = 0
	}
	for b := 0; b < nb; b++ {
		size := int(ix.start[b+1] - ix.start[b])
		if size > ix.stats.MaxBucket {
			ix.stats.MaxBucket = size
		}
		if size > 0 {
			ix.stats.Occupancy[bits.Len32(uint32(size))]++
		}
	}
}

// annBlockRows sizes the per-worker query batches of TopK.
const annBlockRows = 128

// TopK returns, for every query row, its k best fitted rows by inner
// product, each result row sorted descending (ties by lower id). k is
// clamped to the fitted row count; every result row then holds exactly k
// entries — queries keep probing past the Probes floor until their pool
// reaches k. Results are bit-identical for every worker count, and on
// the exact path bit-identical to the blocked exact scan.
func (ix *Index) TopK(queries *dense.Matrix, k, workers int) *Result {
	nq := queries.Rows
	if k < 1 {
		panic(fmt.Sprintf("ann: TopK k = %d < 1", k))
	}
	if k > ix.n {
		k = ix.n
	}
	out := kbest.NewLists(nq, k)
	if nq == 0 || k == 0 {
		return out
	}
	pcap := 0
	if ix.p.PoolCap > 0 {
		pcap = ix.p.PoolCap
		if pcap < k {
			pcap = k
		}
	}
	nBlocks := (nq + annBlockRows - 1) / annBlockRows
	w := par.Resolve(workers)
	if w > nBlocks {
		w = nBlocks
	}
	if len(ix.workers) < w {
		ix.workers = append(ix.workers, make([]searcher, w-len(ix.workers))...)
	}
	for i := 0; i < w; i++ {
		s := &ix.workers[i]
		s.cap = pcap
		s.queries, s.poolRows, s.maxPool = 0, 0, 0
	}
	par.Sharded(w, nBlocks, func(worker, blk int) {
		s := &ix.workers[worker]
		lo := blk * annBlockRows
		hi := lo + annBlockRows
		if hi > nq {
			hi = nq
		}
		for r := lo; r < hi; r++ {
			ix.search(s, queries.Row(r), k, out.Idx[r], out.Score[r])
		}
	})
	// Fold the per-worker counters into the index stats. Integer sums
	// are order-independent, so the totals are deterministic for every
	// worker count.
	for i := 0; i < w; i++ {
		s := &ix.workers[i]
		ix.stats.Queries += s.queries
		ix.stats.PoolRows += s.poolRows
		if s.maxPool > ix.stats.PoolRowsMax {
			ix.stats.PoolRowsMax = s.maxPool
		}
	}
	return out
}

// searcher is one worker's private query scratch.
type searcher struct {
	top  prober // multi-probe walk over the first-level buckets
	sub  prober // the same walk one level down, over a re-hashed bucket
	pool []int32
	// deferred holds (lo, hi) pairs of order-array segments set aside by
	// sub-bucketed gathers: the parent-bucket rows beyond the sub-probe
	// budget, drained in probe order only if the pool falls short of k.
	deferred []int32
	visited  []int32 // (lo, hi) sub-bucket spans taken from the current bucket

	cap int // effective pool cap for this TopK call (0 = none)
	sel kbest.Heap

	queries  int64 // per-TopK stat accumulators
	poolRows int64
	maxPool  int
}

// take appends candidate rows to the pool, honouring the pool cap.
func (s *searcher) take(rows []int32) {
	if s.cap > 0 {
		if room := s.cap - len(s.pool); room < len(rows) {
			if room <= 0 {
				return
			}
			rows = rows[:room]
		}
	}
	s.pool = append(s.pool, rows...)
}

// wantMore reports whether the probe loop should keep visiting buckets:
// past the configured floor only while the pool is short of k, and never
// once the pool cap is reached.
func (s *searcher) wantMore(k, probed, floor int) bool {
	if s.cap > 0 && len(s.pool) >= s.cap {
		return false
	}
	return probed < floor || len(s.pool) < k
}

// search fills one query's k best rows. The approximate path hashes the
// query, walks buckets in multi-probe order until it has probed the
// configured count and gathered ≥ k candidates, and exactly re-ranks the
// pool; the exact path scans every row.
func (ix *Index) search(s *searcher, q []float64, k int, outIdx []int32, outScore []float64) {
	s.queries++
	if ix.p.Exact() {
		s.poolRows += int64(ix.n)
		if ix.n > s.maxPool {
			s.maxPool = ix.n
		}
		s.rerank(outIdx, outScore, q, ix.data, nil, ix.n)
		return
	}
	// Keep probing past the floor until the pool covers k — the full
	// enumeration reaches every bucket, and any rows a sub-bucketed
	// gather deferred are drained afterwards, so pool ≥ k always
	// terminates.
	s.pool = s.pool[:0]
	s.deferred = s.deferred[:0]
	probed := 0
	for b, ok := s.top.start(q, ix.planes, ix.bias), true; ok && s.wantMore(k, probed, ix.p.Probes); b, ok = s.top.next() {
		ix.gather(s, q, b)
		probed++
	}
	for di := 0; di+1 < len(s.deferred) && len(s.pool) < k; di += 2 {
		s.take(ix.order[s.deferred[di]:s.deferred[di+1]])
	}
	s.poolRows += int64(len(s.pool))
	if len(s.pool) > s.maxPool {
		s.maxPool = len(s.pool)
	}
	s.rerank(outIdx, outScore, q, ix.data, s.pool, 0)
}

// gather appends one bucket's rows to the candidate pool. Buckets
// partition the rows, so the pool never holds duplicates. A bucket that
// was re-hashed one level deeper (see buildSubs) is walked through the
// same margin-ordered multi-probe one level down, and contributes at
// most subBudget rows — the size of the largest allowed ordinary bucket
// — so a hot bucket can't flood the pool; the unvisited remainder is
// deferred, to be drained after the probe loop only if the pool falls
// short of k.
func (ix *Index) gather(s *searcher, q []float64, bucket uint32) {
	lo, hi := ix.start[bucket], ix.start[bucket+1]
	if lo == hi {
		return
	}
	si := int32(-1)
	if len(ix.subs) > 0 {
		si = ix.subOf[bucket]
	}
	if si < 0 {
		s.take(ix.order[lo:hi])
		return
	}
	st := &ix.subs[si]
	taken := 0
	s.visited = s.visited[:0]
	for c, ok := s.sub.start(q, st.planes, st.bias), true; ok && taken < ix.subBudget; c, ok = s.sub.next() {
		slo, shi := lo+st.start[c], lo+st.start[c+1]
		if slo == shi {
			continue
		}
		s.take(ix.order[slo:shi])
		taken += int(shi - slo)
		s.visited = append(s.visited, slo, shi)
	}
	// Defer the unvisited remainder. Sub-buckets are contiguous spans of
	// the parent segment, so the complement of the visited spans is a
	// handful of gaps: sort the visited spans positionally (they arrived
	// in margin order) and emit what lies between them.
	for i := 2; i < len(s.visited); i += 2 {
		vlo, vhi := s.visited[i], s.visited[i+1]
		j := i
		for j > 0 && vlo < s.visited[j-2] {
			s.visited[j], s.visited[j+1] = s.visited[j-2], s.visited[j-1]
			j -= 2
		}
		s.visited[j], s.visited[j+1] = vlo, vhi
	}
	prev := lo
	for i := 0; i < len(s.visited); i += 2 {
		if s.visited[i] > prev {
			s.deferred = append(s.deferred, prev, s.visited[i])
		}
		prev = s.visited[i+1]
	}
	if prev < hi {
		s.deferred = append(s.deferred, prev, hi)
	}
}

// prober walks buckets in multi-probe order (Lv et al., VLDB'07): the
// query's own bucket, then perturbation sets popped cheapest-first from
// a probeHeap, each pop seeding its shift and expand successors, so
// every non-empty set of flipped bits is generated exactly once. The
// first-level walk and the sub-table walk of a re-hashed bucket each
// run one.
type prober struct {
	abs  []float64 // per-bit projection margins |z|
	perm []int     // bit positions sorted by ascending margin
	heap probeHeap
	code uint32 // the query's own bucket
}

// start hashes q against the planes and per-bit offsets, orders the bits
// by margin and returns q's own bucket.
func (p *prober) start(q []float64, planes *dense.Matrix, bias []float64) uint32 {
	nb := planes.Rows
	p.abs = resize(p.abs, nb)
	p.code = 0
	for j := 0; j < nb; j++ {
		z := dot(q, planes.Row(j)) - bias[j]
		p.abs[j] = math.Abs(z)
		if z >= 0 {
			p.code |= 1 << uint(j)
		}
	}
	// Sort bit positions by ascending margin (ties by lower position):
	// flipping a near-zero projection is the cheapest perturbation.
	// Insertion sort — nb ≤ 20.
	if cap(p.perm) < nb {
		p.perm = make([]int, nb)
	}
	p.perm = p.perm[:nb]
	for j := range p.perm {
		p.perm[j] = j
	}
	for i := 1; i < nb; i++ {
		b := p.perm[i]
		j := i
		for j > 0 && p.abs[b] < p.abs[p.perm[j-1]] {
			p.perm[j] = p.perm[j-1]
			j--
		}
		p.perm[j] = b
	}
	p.heap.reset()
	p.heap.push(p.abs[p.perm[0]], 1)
	return p.code
}

// next returns the next bucket in probe order; ok is false once every
// bucket has been returned.
func (p *prober) next() (bucket uint32, ok bool) {
	if p.heap.len() == 0 {
		return 0, false
	}
	cost, mask := p.heap.pop()
	var flip uint32
	for m := mask; m != 0; m &= m - 1 {
		flip |= 1 << uint(p.perm[bits.TrailingZeros32(m)])
	}
	if top := bits.Len32(mask) - 1; top+1 < len(p.perm) {
		mTop := p.abs[p.perm[top]]
		mNext := p.abs[p.perm[top+1]]
		p.heap.push(cost-mTop+mNext, mask&^(1<<uint(top))|1<<uint(top+1)) // shift
		p.heap.push(cost+mNext, mask|1<<uint(top+1))                      // expand
	}
	return p.code ^ flip, true
}

// probeHeap is a binary min-heap of pending perturbation sets, ordered
// by (cost, mask): cost is the summed margin of the flipped bits, the
// mask identifies the set over margin-sorted positions and breaks cost
// ties deterministically.
type probeHeap struct {
	c []float64
	m []uint32
}

func (h *probeHeap) reset()   { h.c, h.m = h.c[:0], h.m[:0] }
func (h *probeHeap) len() int { return len(h.c) }

// push adds a pending perturbation set.
func (h *probeHeap) push(cost float64, mask uint32) {
	h.c = append(h.c, cost)
	h.m = append(h.m, mask)
	i := len(h.c) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !probeLess(h.c[i], h.m[i], h.c[p], h.m[p]) {
			return
		}
		h.c[i], h.c[p] = h.c[p], h.c[i]
		h.m[i], h.m[p] = h.m[p], h.m[i]
		i = p
	}
}

// pop removes and returns the cheapest pending perturbation set.
func (h *probeHeap) pop() (float64, uint32) {
	cost, mask := h.c[0], h.m[0]
	n := len(h.c) - 1
	h.c[0], h.m[0] = h.c[n], h.m[n]
	h.c = h.c[:n]
	h.m = h.m[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && probeLess(h.c[r], h.m[r], h.c[l], h.m[l]) {
			m = r
		}
		if !probeLess(h.c[m], h.m[m], h.c[i], h.m[i]) {
			break
		}
		h.c[i], h.c[m] = h.c[m], h.c[i]
		h.m[i], h.m[m] = h.m[m], h.m[i]
		i = m
	}
	return cost, mask
}

// probeLess orders perturbation sets by cost, ties by mask.
func probeLess(c1 float64, m1 uint32, c2 float64, m2 uint32) bool {
	if c1 != c2 {
		return c1 < c2
	}
	return m1 < m2
}

// rerank scores candidates against the query by sequential dot product
// — the same per-cell association as the dense kernel — and writes the
// k = len(outIdx) best into the output slices, under the exact scan's
// selection rule, so equal pools give equal output. Candidates come
// from pool when non-nil, or rows 0..scanN−1 otherwise (the exact full
// scan).
func (s *searcher) rerank(outIdx []int32, outScore []float64, q []float64, data *dense.Matrix, pool []int32, scanN int) {
	h := &s.sel
	h.Reset(len(outIdx))
	if pool != nil {
		for _, j := range pool {
			h.Offer(j, dot(q, data.Row(int(j))))
		}
	} else {
		for j := 0; j < scanN; j++ {
			h.Offer(int32(j), dot(q, data.Row(j)))
		}
	}
	h.Drain(outIdx, outScore)
}

// dot is the sequential inner product — the exact association the dense
// kernel uses per cell, which is what makes full-probe results
// bit-identical to the blocked scan, and a per-row incremental recode
// bit-identical to the batch projection.
func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// resize returns a slice of exactly n elements, reusing capacity.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInt32s returns an int32 slice of exactly n elements, reusing
// capacity.
func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growInt32sAsU32 is growInt32s for uint32 slices.
func growInt32sAsU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}
