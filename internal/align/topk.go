package align

import (
	"fmt"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/kbest"
	"github.com/htc-align/htc/internal/par"
)

// Candidates holds, for every query node, its k most similar nodes on the
// other side with their similarity scores, in descending score order
// (ties by lower index). It is the memory-bounded alternative to the full
// ns×nt similarity matrix: O(n·k) instead of O(n²), computed in row
// blocks. The exact scan and the ANN index both produce it in the shared
// kbest layout, so either one's output is adopted without copying.
type Candidates = kbest.Lists

// topkScratch is the reusable working set of blocked top-k similarity:
// the centered/normalised embedding copies and one similarity block per
// worker. A fine-tuning loop keeps one scratch per direction, so
// iterations after the first allocate only their output Candidates.
type topkScratch struct {
	a, b   *dense.Matrix   // centered + row-normalised embedding copies
	blocks []*dense.Matrix // per-worker sim-block buffers
	heaps  []kbest.Heap    // per-worker top-k selection heaps
}

// TopKCandidates computes the top-k Pearson-similar target rows for every
// source row without materialising more than a block of the similarity
// matrix at a time. The one-shot convenience form of topkScratch.topK.
func TopKCandidates(hs, ht *dense.Matrix, k int) *Candidates {
	s := &topkScratch{}
	return s.topK(hs, ht, k, 0)
}

// topkBlockFloats bounds one similarity block: 2¹⁹ float64s = 4 MiB, so a
// block stays cache-friendly and the per-worker scratch of a wide fan-out
// stays bounded even on very wide target sides.
const topkBlockFloats = 1 << 19

// topkBlockRows sizes a similarity block for nt target columns.
func topkBlockRows(nt int) int {
	if nt < 1 {
		return 256
	}
	rows := topkBlockFloats / nt
	if rows < 16 {
		return 16
	}
	if rows > 256 {
		return 256
	}
	return rows
}

// topK fills a fresh Candidates with every source row's top-k most
// Pearson-similar target rows. The row blocks fan out across at most
// `workers` goroutines (≤ 0 = GOMAXPROCS); every block is written by
// exactly one worker and rows are scored by sequential dot products, so
// the result is bit-identical to the dense Corr for every worker count.
func (s *topkScratch) topK(hs, ht *dense.Matrix, k, workers int) *Candidates {
	if k < 1 {
		panic(fmt.Sprintf("align: TopKCandidates k = %d < 1", k))
	}
	if k > ht.Rows {
		k = ht.Rows
	}
	// One fused pass per direction replaces the copy + center + normalize
	// sequence — bit-identical arithmetic, a third of the memory traffic.
	s.a = dense.Ensure(s.a, hs.Rows, hs.Cols)
	s.b = dense.Ensure(s.b, ht.Rows, ht.Cols)
	dense.CenterNormalizeRowsInto(s.a, hs)
	dense.CenterNormalizeRowsInto(s.b, ht)

	ns, nt := hs.Rows, ht.Rows
	out := kbest.NewLists(ns, k)
	if ns == 0 || k == 0 {
		return out
	}

	blockRows := topkBlockRows(nt)
	nBlocks := (ns + blockRows - 1) / blockRows
	w := par.Resolve(workers)
	if w > nBlocks {
		w = nBlocks
	}
	if len(s.blocks) < w {
		s.blocks = append(s.blocks, make([]*dense.Matrix, w-len(s.blocks))...)
	}
	if len(s.heaps) < w {
		s.heaps = append(s.heaps, make([]kbest.Heap, w-len(s.heaps))...)
	}
	a, b := s.a, s.b
	par.Sharded(w, nBlocks, func(worker, blk int) {
		start := blk * blockRows
		end := start + blockRows
		if end > ns {
			end = ns
		}
		rows := end - start
		s.blocks[worker] = dense.Ensure(s.blocks[worker], blockRows, nt)
		sim := &dense.Matrix{Rows: rows, Cols: nt, Data: s.blocks[worker].Data[:rows*nt]}
		block := &dense.Matrix{Rows: rows, Cols: a.Cols, Data: a.Data[start*a.Cols : end*a.Cols]}
		// The fan-out lives at the block level; the kernel itself runs
		// serially inside its worker.
		dense.MulBTInto(sim, block, b, 1)
		h := &s.heaps[worker]
		for r := 0; r < rows; r++ {
			h.Reset(k)
			for j, v := range sim.Row(r) {
				h.Offer(int32(j), v)
			}
			h.Drain(out.Idx[start+r], out.Score[start+r])
		}
	})
	return out
}

// SparseLISI evaluates the LISI score only on candidate pairs: forward
// holds source→target candidates, backward target→source. The hubness
// degrees of Eq. 10 are estimated from each side's own top-m candidate
// scores — exact whenever k ≥ m. It returns, for every source node, its
// best candidate by LISI (−1 when the node has no candidates); ties
// resolve to the lower candidate index, the dense argmax rule.
func SparseLISI(forward, backward *Candidates, m int) []int {
	dt := topMeansInto(nil, forward, m)
	ds := topMeansInto(nil, backward, m)
	return sparseBest(forward, dt, ds, false)
}

// sparseBest returns each query's best candidate under the LISI
// transform, with ties to the lower candidate index. The transform is
// always evaluated as 2·s − Dt(source) − Ds(target) — float subtraction
// is order-sensitive, so both scan directions must associate exactly
// like the dense LISI kernel to stay bit-identical to it. rowIsTarget
// selects which of dRow/dCand is the source hubness: false means rows
// are sources (dRow = Dt), true means rows are targets (dRow = Ds).
func sparseBest(c *Candidates, dRow, dCand []float64, rowIsTarget bool) []int {
	best := make([]int, len(c.Idx))
	for i, cands := range c.Idx {
		best[i] = -1
		bestScore := 0.0
		for p, j := range cands {
			var score float64
			if rowIsTarget {
				score = 2*c.Score[i][p] - dCand[j] - dRow[i]
			} else {
				score = 2*c.Score[i][p] - dRow[i] - dCand[j]
			}
			if best[i] < 0 || score > bestScore || (score == bestScore && int(j) < best[i]) {
				best[i], bestScore = int(j), score
			}
		}
	}
	return best
}

// TrustedPairsTopK returns the mutual-best pairs under SparseLISI: (i, j)
// is trusted iff j is i's best candidate and i is j's best candidate, each
// judged by LISI in its own direction. With k = n it reproduces the dense
// TrustedPairs(LISI(corr, m)).
func TrustedPairsTopK(forward, backward *Candidates, m int) [][2]int {
	dt := topMeansInto(nil, forward, m)
	ds := topMeansInto(nil, backward, m)
	return trustedPairsCands(forward, backward, dt, ds)
}

// trustedPairsCands is TrustedPairsTopK with the hubness vectors already
// computed (the fine-tuning loop reuses them for the LISI transform).
func trustedPairsCands(forward, backward *Candidates, dt, ds []float64) [][2]int {
	fb := sparseBest(forward, dt, ds, false)
	bb := sparseBest(backward, ds, dt, true)
	var pairs [][2]int
	for i, j := range fb {
		if j >= 0 && bb[j] == i {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}

// topMeansInto fills dst (reallocating if needed) with, per query, the
// mean of its top-m candidate scores — the hubness degree estimate. The
// scores are summed in descending order, matching the dense topMean, so
// the two backends agree bit-for-bit when k ≥ m.
func topMeansInto(dst []float64, c *Candidates, m int) []float64 {
	dst = ensureVec(dst, len(c.Score))
	for i, scores := range c.Score {
		lim := m
		if lim > len(scores) {
			lim = len(scores)
		}
		if lim == 0 {
			dst[i] = 0
			continue
		}
		var s float64
		for _, v := range scores[:lim] {
			s += v
		}
		dst[i] = s / float64(lim)
	}
	return dst
}

// lisiTransform rewrites candidate scores from raw similarity to the LISI
// of Eq. 11 — score(i,j) ← 2·score − dt[i] − ds[j] — and re-sorts every
// row into descending LISI order (ties by lower index), restoring the
// Candidates ordering contract under the new scores.
func lisiTransform(c *Candidates, dt, ds []float64) {
	for i, cands := range c.Idx {
		scores := c.Score[i]
		di := dt[i]
		for p, j := range cands {
			scores[p] = 2*scores[p] - di - ds[j]
		}
		kbest.SortRow(cands, scores)
	}
}
