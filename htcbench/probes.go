package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/ann"
	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/gom"
	"github.com/htc-align/htc/internal/metrics"
	"github.com/htc-align/htc/internal/orbit"
	"github.com/htc-align/htc/internal/refine"
)

// probeReps is how many times a kernel probe repeats; it reports the
// median.
const probeReps = 5

// hiddenWidth is the pipeline's default hidden GCN width, the second
// width the GEMM probe runs at (the first is the embedding width).
const hiddenWidth = 128

// tracedBatch is the traced run of a batch workload on the run's first
// pair. It first aligns untraced for half the window (the baseline of the tracing overhead),
// then makes one alignment with a progress observer and kept embeddings,
// places stage and iteration spans from the observer and the pipeline's
// own timings, and finally times calls into each module on the run's
// graphs and embeddings.
func tracedBatch(o options, spec batchSpec, in *batchInput, loadS float64, rep *report) error {
	base, firsts := timedLoop(spec, []*batchInput{in}, o.seconds/2, 1, rep)
	if firsts[0] == nil {
		return fmt.Errorf("no untraced alignment succeeded")
	}
	tr := newTracer()
	const run = "align"
	cfg := spec.cfg
	cfg.KeepEmbeddings = true
	prepLog, alignLog := &progressLog{}, &progressLog{}

	runtime.GC()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	pcfg := cfg
	pcfg.Progress = prepLog.observe
	prep, err := core.Prepare(in.gs, in.gt, pcfg)
	if err != nil {
		return err
	}
	t1 := time.Now()
	acfg := cfg
	acfg.Progress = alignLog.observe
	res, err := prep.Align(acfg)
	if err != nil {
		return err
	}
	t2 := time.Now()
	cpu := cpuSeconds() - cpu0
	wall := t2.Sub(t0).Seconds()

	root := tr.add(0, run, "core.Prepare+Align", "call", t0, t2, nil)
	prepID := tr.add(root, run, "core.Prepare", "call", t0, t1, nil)
	alignID := tr.add(root, run, "core.Prepared.Align", "call", t1, t2, nil)
	placedPrep, _ := stageSpans(tr, prepID, run, t0, prepLog, prepStages(prep.PrepareTimings()))
	placedAlign, iters := stageSpans(tr, alignID, run, t1, alignLog, alignStages(res.Timings))
	other := wall - placedPrep - placedAlign
	var spanErr error
	if other < 0 {
		spanErr = fmt.Errorf("stage spans cover %.4fs, more than the traced alignment's %.4fs", placedPrep+placedAlign, wall)
	}
	rep.op(spanErr)
	// Observing the run and keeping embeddings must not change it.
	got := evaluate(res, in.truth)
	rep.op(checkOutcome(spec, firsts[0], got))

	rep.set("trace.overhead_frac", wall/median(base.alignS)-1, "fraction")
	rep.set("core.other_s", other, "s")
	rep.set("core.prepare_s", t1.Sub(t0).Seconds(), "s")
	rep.set("par.cpu_util", cpu/(wall*float64(runtime.GOMAXPROCS(0))), "fraction")
	rep.set("ingest.load_s", loadS, "s")

	// Module probe spans are roots of their own run, "probes".
	const probes = 0
	probeGraphs(tr, probes, cfg, in, rep)

	rep.set("nn.train_s", res.Timings.Training.Seconds(), "s")
	rep.set("nn.epoch_s_p50", median(iters[core.StageTrain]), "s")
	var ftIters, trusted int
	for _, po := range res.PerOrbit {
		ftIters += po.Iters
		trusted += po.Trusted
	}
	rep.set("align.finetune_s", res.Timings.FineTuning.Seconds(), "s")
	rep.set("align.finetune_iters", float64(ftIters), "count")
	rep.set("align.trusted", float64(trusted), "count")
	rep.set("align.finetune_alloc_mb", float64(res.Timings.FineTuningBytes)/(1<<20), "MB")
	rep.set("align.integrate_s", res.Timings.Integration.Seconds(), "s")

	hs, ht := res.SourceEmbeddings[0], res.TargetEmbeddings[0]
	exact := probeKernels(tr, probes, hs, ht, res.CandidateK, o.seed, rep)
	probeANN(tr, probes, cfg, res, hs, ht, exact, rep)
	if err := probeRefine(tr, probes, cfg, res, in, iters[core.StageRefine], rep); err != nil {
		return err
	}
	matchS := tr.call(probes, "probes", "align.GreedyMatchSim", func() { align.GreedyMatchSim(res.Sim) })
	rep.set("align.match_s", matchS, "s")
	evalS := tr.call(probes, "probes", "metrics.EvaluateSim", func() { metrics.EvaluateSim(res.Sim, in.truth, 1) })
	rep.set("metrics.eval_s", evalS, "s")
	return tr.write(tracePath(o), hostInfo(), o.workload, o.seed)
}

// probeGraphs times stage 1 and 2 directly on the workload's graphs:
// orbit.CountN and gom.Build for orbit variants, gom.LowOrder otherwise.
func probeGraphs(tr *tracer, parent int, cfg core.Config, in *batchInput, rep *report) {
	if cfg.Variant == core.LowOrder || cfg.Variant == core.LowOrderFT {
		s := tr.call(parent, "probes", "gom.LowOrder", func() { gom.LowOrder(in.gs); gom.LowOrder(in.gt) })
		rep.set("gom.build_s", s, "s")
		return
	}
	var cs, ct *orbit.Counts
	countS := tr.call(parent, "probes", "orbit.CountN", func() { cs, ct = orbit.CountN(in.gs, 0), orbit.CountN(in.gt, 0) })
	rep.set("orbit.count_s", countS, "s")
	k := cfg.WithDefaults().K
	buildS := tr.call(parent, "probes", "gom.Build", func() { gom.Build(in.gs, cs, k, cfg.Binary); gom.Build(in.gt, ct, k, cfg.Binary) })
	rep.set("gom.build_s", buildS, "s")
}

// probeKernels times the exhaustive top-k scan and the MulBTInto GEMM at
// the pipeline's widths: one similarity block (the row count the blocked
// top-k scan uses) against every target row, at the embedding width and
// at the hidden width. Operation counts and bytes moved are computed from
// the shapes, not measured. It returns the exact candidates.
func probeKernels(tr *tracer, parent int, hs, ht *dense.Matrix, k int, seed int64, rep *report) *align.Candidates {
	var exact *align.Candidates
	topkS := medianTime(3, func() { exact = align.TopKCandidates(hs, ht, k) })
	tr.call(parent, "probes", "align.TopKCandidates", func() { align.TopKCandidates(hs, ht, k) })
	rep.set("align.topk_scan_s", topkS, "s")
	rep.set("align.topk_scan_ops", 2*float64(hs.Rows)*float64(ht.Rows)*float64(hs.Cols), "flop-computed")

	rows := blockRows(ht.Rows, hs.Rows)
	a := &dense.Matrix{Rows: rows, Cols: hs.Cols, Data: hs.Data[:rows*hs.Cols]}
	mulbt(tr, parent, "dense.mulbt", a, ht, rep)
	c := dense.New(a.Rows, ht.Rows)
	one := medianTime(probeReps, func() { dense.MulBTInto(c, a, ht, 1) })
	two := medianTime(probeReps, func() { dense.MulBTInto(c, a, ht, 2) })
	rep.set("dense.mulbt_par_speedup", one/two, "ratio")

	rng := rand.New(rand.NewSource(seed))
	randMatrix := func(r, c int) *dense.Matrix {
		m := dense.New(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	mulbt(tr, parent, "dense.mulbt_h128", randMatrix(rows, hiddenWidth), randMatrix(ht.Rows, hiddenWidth), rep)
	return exact
}

// mulbt times c = a·bᵀ with all workers and reports the time, the
// computed GFLOP/s, operation count and bytes.
func mulbt(tr *tracer, parent int, name string, a, b *dense.Matrix, rep *report) {
	c := dense.New(a.Rows, b.Rows)
	s := medianTime(probeReps, func() { dense.MulBTInto(c, a, b, 0) })
	tr.call(parent, "probes", "dense.MulBTInto", func() { dense.MulBTInto(c, a, b, 0) })
	ops := 2 * float64(a.Rows) * float64(b.Rows) * float64(a.Cols)
	bytes := 8 * float64(a.Rows*a.Cols+b.Rows*b.Cols+a.Rows*b.Rows)
	rep.set(name+"_s", s, "s")
	rep.set(name+"_gflops", ops/s/1e9, "GFLOP/s-computed")
	rep.set(name+"_ops", ops, "flop-computed")
	rep.set(name+"_bytes", bytes, "B-computed")
}

// blockRows is the row count of one similarity block of the blocked
// top-k scan for nt target columns (4 MiB of float64, 16 to 256 rows),
// capped at the source row count.
func blockRows(nt, ns int) int {
	rows := (1 << 19) / nt
	rows = max(16, min(rows, 256))
	return min(rows, ns)
}

// probeANN times the LSH index fit and probe/re-rank at the parameters
// the run resolved, and measures candidate recall against the exact
// top-k lists on the same embeddings. Runs on other backends skip it.
func probeANN(tr *tracer, parent int, cfg core.Config, res *core.Result, hs, ht *dense.Matrix, exact *align.Candidates, rep *report) {
	if res.Ann == nil {
		return
	}
	p := ann.Params{Bits: res.AnnBits, Probes: res.AnnProbes, PoolCap: res.AnnPoolCap, Seed: cfg.Seed}
	a, b := dense.New(hs.Rows, hs.Cols), dense.New(ht.Rows, ht.Cols)
	dense.CenterNormalizeRowsInto(a, hs)
	dense.CenterNormalizeRowsInto(b, ht)
	k := res.CandidateK
	var fits, queries []float64
	for i := 0; i < probeReps; i++ {
		ix := ann.New(p)
		fits = append(fits, timeIt(func() { ix.Fit(b, 0) }))
		queries = append(queries, timeIt(func() { ix.TopK(a, k, 0) }))
	}
	var got *align.Candidates
	tr.call(parent, "probes", "align.ANNCandidatesStats", func() { got, _ = align.ANNCandidatesStats(hs, ht, k, p, 0) })
	rep.set("ann.fit_s", median(fits), "s")
	rep.set("ann.query_s", median(queries), "s")
	rep.set("ann.pool_rows_mean", res.Ann.PoolRowsMean, "count")
	rep.set("ann.pool_per_k", res.Ann.PoolRowsMean/float64(k), "ratio")
	rep.set("ann.recall", align.CandidateRecall(got, exact), "fraction")
	rep.set("ann.refit_reuse", res.Ann.RefitReuseRatio, "fraction")
}

// probeRefine reports refinement's share of the run and re-runs
// refine.Refine on the run's pre-refinement similarity, which must
// reproduce the run's refined alignment. Runs without refinement skip it.
func probeRefine(tr *tracer, parent int, cfg core.Config, res *core.Result, in *batchInput, iterS []float64, rep *report) error {
	if res.PreRefineSim == nil {
		return nil
	}
	var rres *refine.Result
	var err error
	tr.call(parent, "probes", "refine.Refine", func() {
		rres, err = refine.Refine(res.PreRefineSim, in.gs, in.gt, refine.Options{Iters: cfg.RefineIters, TokenK: cfg.RefineTokenK})
	})
	if err != nil {
		return err
	}
	refined, pre := metrics.EvaluateSim(res.Sim, in.truth, 1), metrics.EvaluateSim(res.PreRefineSim, in.truth, 1)
	again := metrics.EvaluateSim(rres.Sim, in.truth, 1)
	var check error
	if again.PrecisionAt[1] != refined.PrecisionAt[1] || again.MRR != refined.MRR {
		check = fmt.Errorf("refine.Refine on the pre-refinement similarity gave hits1/mrr %v/%v, the pipeline %v/%v",
			again.PrecisionAt[1], again.MRR, refined.PrecisionAt[1], refined.MRR)
	}
	rep.op(check)
	rep.set("refine.refine_s", res.Timings.Refinement.Seconds(), "s")
	rep.set("refine.iter_s_p50", median(iterS), "s")
	rep.set("refine.mnc_gain", res.RefineMNC[len(res.RefineMNC)-1]-res.RefineMNC[0], "fraction")
	rep.set("refine.hits1_delta", refined.PrecisionAt[1]-pre.PrecisionAt[1], "fraction")
	return nil
}
