package refine

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/kbest"
	"github.com/htc-align/htc/internal/metrics"
)

// testPair builds a source graph and an isomorphic target hiding the
// permutation perm (target node perm[i] plays source node i).
func testPair(n int, p float64, seed int64) (*graph.Graph, *graph.Graph, []int) {
	rng := rand.New(rand.NewSource(seed))
	gs := graph.ErdosRenyi(n, p, rng)
	perm := rng.Perm(n)
	gt := graph.Relabel(gs, perm)
	return gs, gt, perm
}

// noisySim scores the true pair highest in most rows but corrupts a
// fraction of rows so their argmax points at a wrong target — the shape
// of an imperfect aligner's output that refinement should repair.
func noisySim(n int, perm []int, corrupt float64, seed int64) *dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := dense.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, 0.1*rng.Float64())
		}
		m.Set(i, perm[i], 1+0.1*rng.Float64())
		if rng.Float64() < corrupt {
			m.Set(i, rng.Intn(n), 2)
		}
	}
	return m
}

// fullTopK wraps the same scores as a candidate-list Sim with k = n —
// the configuration under which the sparse path must be bit-identical
// to the dense one.
func fullTopK(m *dense.Matrix) *align.TopKSim {
	c := &align.Candidates{K: m.Cols, Idx: make([][]int32, m.Rows), Score: make([][]float64, m.Rows)}
	for i := 0; i < m.Rows; i++ {
		idx := make([]int32, m.Cols)
		score := make([]float64, m.Cols)
		for j := 0; j < m.Cols; j++ {
			idx[j] = int32(j)
			score[j] = m.At(i, j)
		}
		kbest.SortRow(idx, score)
		c.Idx[i] = idx
		c.Score[i] = score
	}
	return &align.TopKSim{C: c, Cols: m.Cols}
}

func TestDenseAndFullCandidateListAgreeBitwise(t *testing.T) {
	gs, gt, perm := testPair(40, 0.12, 3)
	m := noisySim(40, perm, 0.3, 4)
	// Mix in negative scores to exercise the non-negativity shift.
	for i := range m.Data {
		m.Data[i] -= 0.05
	}

	// TokenK 0 resolves to every column, so no token selection runs;
	// TokenK 3 sends every row through the bounded top-tokenK selection.
	for _, tokenK := range []int{0, 3} {
		opts := Options{Iters: 4, TokenK: tokenK}
		dres, err := Refine(align.DenseSim{M: m.Clone()}, gs, gt, opts)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := Refine(fullTopK(m), gs, gt, opts)
		if err != nil {
			t.Fatal(err)
		}
		dm := dres.Sim.(align.DenseSim).M
		for i := 0; i < 40; i++ {
			for j := 0; j < 40; j++ {
				sv, ok := sres.Sim.At(i, j)
				if !ok {
					t.Fatalf("TokenK %d: pair (%d,%d) missing from the full candidate list after refinement", tokenK, i, j)
				}
				if sv != dm.At(i, j) {
					t.Fatalf("TokenK %d: refined score (%d,%d): dense %v, candidate list %v", tokenK, i, j, dm.At(i, j), sv)
				}
			}
		}
		for it := range dres.MNC {
			if dres.MNC[it] != sres.MNC[it] {
				t.Fatalf("TokenK %d: MNC[%d]: dense %v, candidate list %v", tokenK, it, dres.MNC[it], sres.MNC[it])
			}
		}
	}
}

// sortSelectTokens is the reference token selection: fully sort U by
// (accU desc, column asc) and take the first tokenK entries.
func sortSelectTokens(accU []float64, um []int32, tokenK int) []int32 {
	ord := append([]int32(nil), um...)
	sort.Slice(ord, func(a, b int) bool {
		ja, jb := ord[a], ord[b]
		if accU[ja] != accU[jb] {
			return accU[ja] > accU[jb]
		}
		return ja < jb
	})
	return ord[:tokenK]
}

// TestSelectTokensMatchesFullSort checks the bounded selection picks
// exactly the set the full sort's first tokenK entries form, on random
// U whose scores sit on a few levels (so exact ties are common, and
// −0 ties +0) and whose columns arrive in random order.
func TestSelectTokensMatchesFullSort(t *testing.T) {
	const cols = 1000
	rng := rand.New(rand.NewSource(21))
	levels := []float64{math.Copysign(0, -1), 0, 0.25, 0.5, 1, 3}
	sc := newScratch(cols)
	for n := 2; n <= 300; n++ {
		um := make([]int32, n)
		for c, j := range rng.Perm(cols)[:n] {
			um[c] = int32(j)
			sc.accU[j] = levels[rng.Intn(len(levels))]
		}
		for _, tokenK := range []int{1, 2, n / 2, n - 1} {
			if tokenK < 1 || tokenK >= n {
				continue
			}
			want := sortSelectTokens(sc.accU, um, tokenK)
			got := append([]int32(nil), sc.selectTokens(um, tokenK)...)
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("|U|=%d tokenK=%d: selected %v, full sort %v", n, tokenK, got, want)
			}
		}
	}
}

func TestZeroItersReturnsInputUnchanged(t *testing.T) {
	gs, gt, perm := testPair(30, 0.15, 5)
	m := noisySim(30, perm, 0.2, 6)
	in := align.DenseSim{M: m}
	before := append([]float64(nil), m.Data...)

	res, err := Refine(in, gs, gt, Options{Iters: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim != align.Sim(in) {
		t.Error("0 iterations must return the input Sim itself")
	}
	for i, v := range m.Data {
		if v != before[i] {
			t.Fatalf("0 iterations mutated the input at flat index %d", i)
		}
	}
	if len(res.MNC) != 1 {
		t.Fatalf("0 iterations should report only the initial MNC, got %v", res.MNC)
	}
}

// TestMNCNonDecreasing checks the RefiNA objective climbs across
// iterations. Monotonicity is an empirical property, not a theorem —
// the update is a heuristic ascent — so a decrease of up to 1e-9
// (float renormalisation jitter) is tolerated; real regressions show up
// orders of magnitude larger.
func TestMNCNonDecreasing(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		gs, gt, perm := testPair(60, 0.1, seed)
		m := noisySim(60, perm, 0.35, seed+10)
		res, err := Refine(align.DenseSim{M: m}, gs, gt, Options{Iters: 6})
		if err != nil {
			t.Fatal(err)
		}
		for it := 1; it < len(res.MNC); it++ {
			if res.MNC[it] < res.MNC[it-1]-1e-9 {
				t.Errorf("seed %d: MNC decreased at iteration %d: %v", seed, it, res.MNC)
			}
		}
		if last := res.MNC[len(res.MNC)-1]; last <= res.MNC[0] {
			t.Errorf("seed %d: refinement never improved MNC: %v", seed, res.MNC)
		}
	}
}

func TestRefineImprovesHitsAt1(t *testing.T) {
	gs, gt, perm := testPair(80, 0.1, 7)
	m := noisySim(80, perm, 0.3, 8)
	truth := metrics.FromPerm(perm)

	before := metrics.EvaluateSim(align.DenseSim{M: m}, truth, 1)
	res, err := Refine(align.DenseSim{M: m}, gs, gt, Options{Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.EvaluateSim(res.Sim, truth, 1)
	if after.PrecisionAt[1] <= before.PrecisionAt[1] {
		t.Errorf("Hits@1 did not improve: %.4f -> %.4f", before.PrecisionAt[1], after.PrecisionAt[1])
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	gs, gt, perm := testPair(50, 0.12, 9)
	m := noisySim(50, perm, 0.3, 10)
	base, err := Refine(fullTopK(m), gs, gt, Options{Iters: 3, TokenK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 7} {
		got, err := Refine(fullTopK(m), gs, gt, Options{Iters: 3, TokenK: 8, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		bs := base.Sim.(*align.TopKSim)
		gsim := got.Sim.(*align.TopKSim)
		for i := range bs.C.Idx {
			if len(bs.C.Idx[i]) != len(gsim.C.Idx[i]) {
				t.Fatalf("workers=%d: row %d length differs", w, i)
			}
			for c := range bs.C.Idx[i] {
				if bs.C.Idx[i][c] != gsim.C.Idx[i][c] || bs.C.Score[i][c] != gsim.C.Score[i][c] {
					t.Fatalf("workers=%d: row %d entry %d differs", w, i, c)
				}
			}
		}
	}
}

// TestTokenBudgetGrowsSparseSupport verifies the mechanism that makes
// sparse refinement more than a reweighting: a one-hot matching (k-
// budgeted) gains neighbor-supported candidates through token matches.
func TestTokenBudgetGrowsSparseSupport(t *testing.T) {
	gs, gt, perm := testPair(40, 0.15, 11)
	match := make([]int, 40)
	copy(match, perm)
	// Corrupt a quarter of the matching.
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 10; i++ {
		match[rng.Intn(40)] = rng.Intn(40)
	}
	sim, err := FromMatching(match, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Refine(sim, gs, gt, Options{Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	refined := res.Sim.(*align.TopKSim)
	grew := false
	for i := range refined.C.Idx {
		if len(refined.C.Idx[i]) > 1 {
			grew = true
		}
		if len(refined.C.Idx[i]) > 8 {
			t.Fatalf("row %d exceeded the candidate budget: %d entries", i, len(refined.C.Idx[i]))
		}
	}
	if !grew {
		t.Error("token matches never grew any row beyond its one-hot support")
	}
	if res.MNC[len(res.MNC)-1] <= res.MNC[0] {
		t.Errorf("refining the corrupted matching did not raise MNC: %v", res.MNC)
	}
}

func TestValidation(t *testing.T) {
	gs, gt, perm := testPair(20, 0.2, 13)
	m := noisySim(20, perm, 0, 14)
	sim := align.DenseSim{M: m}
	cases := []struct {
		name string
		sim  align.Sim
		opts Options
	}{
		{"nil sim", nil, Options{Iters: 1}},
		{"negative iters", sim, Options{Iters: -1}},
		{"negative token budget", sim, Options{Iters: 1, TokenK: -2}},
		{"shape mismatch", align.DenseSim{M: dense.New(5, 20)}, Options{Iters: 1}},
	}
	for _, tc := range cases {
		if _, err := Refine(tc.sim, gs, gt, tc.opts); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
	if _, err := FromMatching([]int{0, 25}, 20, 4); err == nil {
		t.Error("FromMatching accepted an out-of-range target")
	}
}

func TestMNCPerfectAlignmentIsOne(t *testing.T) {
	gs, gt, perm := testPair(30, 0.2, 15)
	if got := MNC(perm, gs, gt, 1); got != 1 {
		t.Errorf("MNC of the true isomorphism = %v, want 1", got)
	}
	unmatched := make([]int, 30)
	for i := range unmatched {
		unmatched[i] = -1
	}
	if got := MNC(unmatched, gs, gt, 1); got != 0 {
		t.Errorf("MNC of an empty matching = %v, want 0", got)
	}
}
