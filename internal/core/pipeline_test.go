package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/metrics"
)

// noisyPair builds a source graph and a target obtained by removing a
// fraction of edges and permuting node ids — the synthetic-dataset recipe
// of the paper's §V-A.
func noisyPair(n int, removeRatio float64, seed int64) (*graph.Graph, *graph.Graph, metrics.Truth) {
	rng := rand.New(rand.NewSource(seed))
	gs := graph.ErdosRenyi(n, 0.2, rng)
	x := dense.New(n, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	gs = gs.WithAttrs(x)

	b := graph.NewBuilder(n)
	for _, e := range gs.Edges() {
		if rng.Float64() >= removeRatio {
			b.AddEdge(int(e[0]), int(e[1]))
		}
	}
	gt := b.Build().WithAttrs(x.Clone())
	perm := graph.Permutation(n, rng)
	gt = graph.Relabel(gt, perm)
	return gs, gt, metrics.FromPerm(perm)
}

func quickConfig(v Variant) Config {
	return Config{
		Variant: v, K: 5, Hidden: 16, Embed: 8,
		Epochs: 40, M: 5, Seed: 1,
	}
}

func TestAlignPerfectPair(t *testing.T) {
	gs, gt, truth := noisyPair(40, 0, 2)
	res, err := Align(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	rep := metrics.Evaluate(res.M, truth, 1)
	if rep.PrecisionAt[1] < 0.9 {
		t.Fatalf("p@1 = %v on a noise-free pair, want ≥ 0.9", rep.PrecisionAt[1])
	}
}

func TestAlignVariantsRun(t *testing.T) {
	gs, gt, truth := noisyPair(30, 0.1, 3)
	for _, v := range []Variant{Full, LowOrder, HighOrder, LowOrderFT, DiffusionFT} {
		res, err := Align(gs, gt, quickConfig(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.M.Rows != 30 || res.M.Cols != 30 {
			t.Fatalf("%v: alignment shape %dx%d", v, res.M.Rows, res.M.Cols)
		}
		rep := metrics.Evaluate(res.M, truth, 1)
		t.Logf("%v: p@1=%.3f", v, rep.PrecisionAt[1])
	}
}

func TestAlignVariantOrbitCounts(t *testing.T) {
	gs, gt, _ := noisyPair(25, 0.1, 4)
	res, err := Align(gs, gt, quickConfig(LowOrder))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOrbit) != 1 {
		t.Fatalf("HTC-L must use exactly 1 orbit, got %d", len(res.PerOrbit))
	}
	if res.Timings.OrbitCounting != 0 {
		t.Fatal("HTC-L must not pay for orbit counting")
	}

	res, err = Align(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOrbit) != 5 {
		t.Fatalf("K=5 run produced %d orbit outcomes", len(res.PerOrbit))
	}
}

func TestAlignGammasSumToOne(t *testing.T) {
	gs, gt, _ := noisyPair(30, 0.1, 5)
	res, err := Align(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, o := range res.PerOrbit {
		if o.Gamma < 0 {
			t.Fatalf("negative gamma: %+v", o)
		}
		sum += o.Gamma
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("gammas sum to %v", sum)
	}
}

func TestAlignDeterministicForSeed(t *testing.T) {
	gs, gt, _ := noisyPair(25, 0.1, 6)
	r1, err := Align(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Align(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.M.Equal(r2.M, 0) {
		t.Fatal("same seed must give bit-identical alignment")
	}
}

func TestAlignSeedChangesResult(t *testing.T) {
	gs, gt, _ := noisyPair(25, 0.1, 7)
	cfg := quickConfig(Full)
	r1, _ := Align(gs, gt, cfg)
	cfg.Seed = 999
	r2, _ := Align(gs, gt, cfg)
	if r1.M.Equal(r2.M, 0) {
		t.Fatal("different seeds should perturb the result")
	}
}

func TestAlignNoAttrsUsesStructuralFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	gs := graph.ErdosRenyi(20, 0.3, rng)
	perm := graph.Permutation(20, rng)
	gt := graph.Relabel(gs, perm)
	res, err := Align(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	if res.M == nil {
		t.Fatal("no alignment produced")
	}
}

func TestAlignAttrMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gs := graph.ErdosRenyi(10, 0.3, rng).WithAttrs(dense.New(10, 3))
	gt := graph.ErdosRenyi(10, 0.3, rng)
	if _, err := Align(gs, gt, quickConfig(Full)); !errors.Is(err, ErrAttrMismatch) {
		t.Fatalf("err = %v, want ErrAttrMismatch", err)
	}
	gt = gt.WithAttrs(dense.New(10, 5))
	if _, err := Align(gs, gt, quickConfig(Full)); !errors.Is(err, ErrAttrMismatch) {
		t.Fatalf("err = %v, want ErrAttrMismatch", err)
	}
}

func TestAlignTimingsPopulated(t *testing.T) {
	gs, gt, _ := noisyPair(25, 0.1, 10)
	res, err := Align(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	if tm.Total <= 0 || tm.Training <= 0 || tm.FineTuning <= 0 || tm.OrbitCounting <= 0 {
		t.Fatalf("timings not populated: %v", tm)
	}
	if tm.Other() < 0 {
		t.Fatalf("Other() negative: %v", tm.Other())
	}
	if tm.String() == "" {
		t.Fatal("empty timing string")
	}
}

// TestStageTimingsBytes: the per-stage allocation deltas are recorded and
// surface in the timings line.
func TestStageTimingsBytes(t *testing.T) {
	gs, gt, _ := noisyPair(30, 0.1, 2)
	res, err := Align(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	if tm.TotalBytes == 0 {
		t.Fatal("TotalBytes not recorded")
	}
	if tm.TrainingBytes == 0 || tm.FineTuningBytes == 0 {
		t.Fatalf("stage bytes missing: train=%d finetune=%d", tm.TrainingBytes, tm.FineTuningBytes)
	}
	sum := tm.OrbitCountingBytes + tm.LaplaciansBytes + tm.TrainingBytes +
		tm.FineTuningBytes + tm.IntegrationBytes
	if sum > tm.TotalBytes {
		t.Fatalf("stage bytes %d exceed total %d", sum, tm.TotalBytes)
	}
	s := tm.String()
	for _, sub := range []string{"alloc[", "train=", "total="} {
		if !strings.Contains(s, sub) {
			t.Fatalf("timings string missing %q: %q", sub, s)
		}
	}
}

// TestStageTimingsAddPrepare: folding Prepare's eager build into a
// staged run adds its orbit and Laplacian cost, times and bytes, and
// leaves the wall-clock Total to the caller.
func TestStageTimingsAddPrepare(t *testing.T) {
	gs, gt, _ := noisyPair(30, 0.1, 2)
	p, err := Prepare(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Align(quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	pt := p.PrepareTimings()
	if pt.OrbitCounting == 0 || pt.Laplacians == 0 {
		t.Fatalf("Prepare recorded no eager build: %v", pt)
	}
	before := res.Timings
	tm := before
	tm.AddPrepare(pt)
	if tm.OrbitCounting != before.OrbitCounting+pt.OrbitCounting ||
		tm.Laplacians != before.Laplacians+pt.Laplacians ||
		tm.OrbitCountingBytes != before.OrbitCountingBytes+pt.OrbitCountingBytes ||
		tm.LaplaciansBytes != before.LaplaciansBytes+pt.LaplaciansBytes ||
		tm.TotalBytes != before.TotalBytes+pt.OrbitCountingBytes+pt.LaplaciansBytes ||
		tm.Total != before.Total {
		t.Fatalf("AddPrepare(%v) on %v gave %v", pt, before, tm)
	}
}

func TestAlignLossHistoryDecreases(t *testing.T) {
	gs, gt, _ := noisyPair(30, 0.1, 11)
	res, err := Align(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	h := res.LossHistory
	if len(h) == 0 || h[len(h)-1] >= h[0] {
		t.Fatalf("loss history not decreasing: %v...%v", h[0], h[len(h)-1])
	}
}

func TestHigherOrderBeatsLowOrderOnClusteredGraph(t *testing.T) {
	// The headline claim (Table III): with structure-rich graphs, using
	// all orbits must not align worse than orbit 0 alone. We use a
	// clustered graph (many triangles) where higher-order information
	// actually exists, and attributes too weak to align on their own.
	rng := rand.New(rand.NewSource(12))
	gs := graph.PreferentialAttachment(60, 4, rng)
	x := dense.New(60, 2)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 0.1
	}
	gs = gs.WithAttrs(x)
	perm := graph.Permutation(60, rng)
	gt := graph.Relabel(gs, perm)
	truth := metrics.FromPerm(perm)

	cfg := quickConfig(Full)
	cfg.K = 8
	full, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := Align(gs, gt, quickConfig(LowOrder))
	if err != nil {
		t.Fatal(err)
	}
	pFull := metrics.Evaluate(full.M, truth, 1).PrecisionAt[1]
	pLow := metrics.Evaluate(low.M, truth, 1).PrecisionAt[1]
	t.Logf("HTC p@1=%.3f, HTC-L p@1=%.3f", pFull, pLow)
	if pFull+0.05 < pLow {
		t.Fatalf("full HTC (%.3f) clearly worse than HTC-L (%.3f)", pFull, pLow)
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{
		Full: "HTC", LowOrder: "HTC-L", HighOrder: "HTC-H",
		LowOrderFT: "HTC-LT", DiffusionFT: "HTC-DT", Variant(99): "Variant(99)",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.K != 13 || c.Hidden != 128 || c.Embed != 64 || c.Layers != 2 ||
		c.Epochs != 60 || c.LR != 0.01 || c.M != 20 || c.Beta != 1.1 {
		t.Fatalf("defaults = %+v", c)
	}
	c = Config{Layers: 3, K: 99}.withDefaults()
	if c.Layers != 3 {
		t.Fatal("Layers=3 must be honoured")
	}
	if c.K != 13 {
		t.Fatalf("K out of range must clamp to 13, got %d", c.K)
	}
}

func TestResultPredict(t *testing.T) {
	res := &Result{M: dense.FromRows([][]float64{{0.1, 0.9}, {0.8, 0.2}})}
	pred := res.Predict()
	if pred[0] != 1 || pred[1] != 0 {
		t.Fatalf("Predict = %v", pred)
	}
}
