package align

import (
	"fmt"

	"github.com/htc-align/htc/internal/ann"
	"github.com/htc-align/htc/internal/dense"
)

// annScratch mirrors topkScratch for the LSH candidate generator: the
// centered/normalised embedding copies plus a reusable index. One
// scratch serves one direction of a fine-tuning loop; iterations after
// the first reuse the copies, planes and bucket arrays and allocate only
// their output Candidates — the same amortisation as the blocked scan.
type annScratch struct {
	p    ann.Params
	a, b *dense.Matrix
	ix   *ann.Index
}

// topK fills a fresh Candidates with every source row's approximately
// top-k most Pearson-similar target rows. Centering and row-normalising
// both sides first turns the inner products the index ranks by into
// exactly the Pearson scores of the blocked exact scan — same floats,
// same (score desc, id asc) ordering — so a full-probe index reproduces
// topkScratch.topK bit for bit, and downstream consumers (hubness, LISI,
// trusted pairs, integration) run unchanged on the candidate lists.
func (s *annScratch) topK(hs, ht *dense.Matrix, k, workers int) *Candidates {
	if k < 1 {
		panic(fmt.Sprintf("align: ANNCandidates k = %d < 1", k))
	}
	s.a = dense.Ensure(s.a, hs.Rows, hs.Cols)
	s.b = dense.Ensure(s.b, ht.Rows, ht.Cols)
	dense.CenterNormalizeRowsInto(s.a, hs)
	dense.CenterNormalizeRowsInto(s.b, ht)
	if s.ix == nil {
		s.ix = ann.New(s.p)
	}
	s.ix.Fit(s.b, workers)
	return s.ix.TopK(s.a, k, workers)
}

// stats returns the scratch's accumulated index statistics; the zero
// block if the index was never built.
func (s *annScratch) stats() ann.Stats {
	if s.ix == nil {
		return ann.Stats{}
	}
	return s.ix.Stats()
}

// ANNCandidates computes every source row's approximately top-k most
// Pearson-similar target rows through an LSH index — the sub-quadratic
// alternative to TopKCandidates. With p.Probes ≥ 2^p.Bits (the exactness
// escape hatch) the output is bit-identical to TopKCandidates. Workers
// follows the TopKCandidates contract: 0 means every core, and the
// result is identical for every worker count.
func ANNCandidates(hs, ht *dense.Matrix, k int, p ann.Params, workers int) *Candidates {
	c, _ := ANNCandidatesStats(hs, ht, k, p, workers)
	return c
}

// ANNCandidatesStats is ANNCandidates returning the index's
// skew-observability block alongside the candidates.
func ANNCandidatesStats(hs, ht *dense.Matrix, k int, p ann.Params, workers int) (*Candidates, ann.Stats) {
	s := &annScratch{p: p}
	c := s.topK(hs, ht, k, workers)
	return c, s.stats()
}

// CandidateRecall measures how much of the exact candidate set an
// approximate one recovered: the fraction of (query, candidate) pairs of
// `want` also present in `got`, pooled over all queries. 1.0 means every
// exact top-k candidate survived the pruning.
func CandidateRecall(got, want *Candidates) float64 {
	seen := make(map[int32]bool)
	var hit, total int
	for i, wantRow := range want.Idx {
		for k := range seen {
			delete(seen, k)
		}
		if i < len(got.Idx) {
			for _, j := range got.Idx[i] {
				seen[j] = true
			}
		}
		for _, j := range wantRow {
			total++
			if seen[j] {
				hit++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}
