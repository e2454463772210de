package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/ingest"
	"github.com/htc-align/htc/internal/metrics"
)

// batchSpec is a library workload: generated econ pairs aligned in
// rotation under one fixed configuration.
type batchSpec struct {
	n       int
	remove  float64
	cfg     core.Config
	backend string
	// minHits1 is the accuracy floor for seeds without a recorded
	// reference.
	minHits1 float64
}

// topkSpec: full HTC (13 orbits) with the exhaustive blocked top-k
// similarity — fine-tune and the MulBTInto GEMM dominate; no ANN, no
// refinement. Orbits fine-tune concurrently and the one needing the most
// iterations sets the stage's wall time, so the iteration cap keeps the
// cost from swinging with the pair.
var topkSpec = batchSpec{
	n: 800, remove: 0.2, backend: "topk", minHits1: 0.9,
	cfg: core.Config{Variant: core.Full, Similarity: core.SimTopK, CandidateK: 40, Epochs: 4, MaxFineTuneIters: 3},
}

// annRefineSpec: HTC-L with the LSH candidate generator and two RefiNA
// iterations — refinement and ANN probe/re-rank dominate; no orbit
// counting, no exhaustive top-k.
var annRefineSpec = batchSpec{
	n: 4000, remove: 0.2, backend: "ann", minHits1: 0.6,
	cfg: core.Config{Variant: core.LowOrder, Similarity: core.SimANN, Epochs: 4, RefineIters: 2},
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

// batchPairs is how many distinct pairs a batch run aligns in rotation.
// An alignment's cost depends on the pair (fine-tune iterations per
// orbit, higher-order orbit density), so a run's median over several
// pairs varies far less from seed to seed than one pair's would.
const batchPairs = 5

// batchInput is a loaded workload pair.
type batchInput struct {
	gs, gt *graph.Graph
	truth  metrics.Truth
}

// setupBatch generates the run's pairs (data seeds seed*100+i), writes
// them with ingest.Write and loads them back with ingest.LoadPair,
// setupReps times. It returns the last loaded pairs, the median set-up
// time and the median load time.
func setupBatch(o options, spec batchSpec, rep *report) ([]*batchInput, float64, float64, error) {
	dir := filepath.Join(".bench_build", "data", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	var ins []*batchInput
	var setups, loads []float64
	for r := 0; r < setupReps; r++ {
		ins = ins[:0]
		var loadS float64
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < batchPairs; i++ {
			seed := o.seed*100 + int64(i)
			src := datasets.Econ(spec.n, seed)
			tgt, truth := datasets.MakeTarget(src, spec.remove, seed+1)
			paths := [3]string{filepath.Join(dir, "source.graph"), filepath.Join(dir, "target.graph"), filepath.Join(dir, "truth.txt")}
			if err := writePair(paths, src, tgt, truth); err != nil {
				return nil, 0, 0, err
			}
			t1 := time.Now()
			pair, err := ingest.LoadPair(paths[0], paths[1], ingest.Options{})
			if err != nil {
				return nil, 0, 0, err
			}
			loaded, err := ingest.ReadTruthFile(paths[2], pair.SourceIDs, pair.TargetIDs)
			if err != nil {
				return nil, 0, 0, err
			}
			loadS += time.Since(t1).Seconds()
			rep.op(checkLoaded(src, tgt, truth, pair, loaded))
			ins = append(ins, &batchInput{gs: pair.Source, gt: pair.Target, truth: loaded})
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, loadS)
	}
	return ins, median(setups), median(loads), nil
}

func writePair(paths [3]string, src, tgt *graph.Graph, truth metrics.Truth) error {
	for i, g := range []*graph.Graph{src, tgt} {
		f, err := os.Create(paths[i])
		if err != nil {
			return err
		}
		if err := ingest.Write(f, g, nil, "htc-graph"); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	f, err := os.Create(paths[2])
	if err != nil {
		return err
	}
	if err := ingest.WriteTruth(f, truth, ingest.Identity(src.N()), ingest.Identity(tgt.N())); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkLoaded verifies the round trip through the file formats kept the
// pair: sizes, edges, attributes and ground truth.
func checkLoaded(src, tgt *graph.Graph, truth metrics.Truth, pair *ingest.Pair, loaded metrics.Truth) error {
	for _, c := range []struct {
		name      string
		want, got *graph.Graph
	}{{"source", src, pair.Source}, {"target", tgt, pair.Target}} {
		if c.want.N() != c.got.N() || c.want.NumEdges() != c.got.NumEdges() {
			return fmt.Errorf("ingest round trip: %s has %d nodes/%d edges, want %d/%d",
				c.name, c.got.N(), c.got.NumEdges(), c.want.N(), c.want.NumEdges())
		}
		if !reflect.DeepEqual(c.want.Attrs(), c.got.Attrs()) {
			return fmt.Errorf("ingest round trip: %s attributes differ", c.name)
		}
	}
	if !reflect.DeepEqual(truth, loaded) {
		return fmt.Errorf("ingest round trip: ground truth differs")
	}
	return nil
}

// outcome is what one alignment produced, for the correctness checks.
type outcome struct {
	hits1, mrr float64
	backend    string
}

// checkOutcome checks one alignment: the backend the spec asks for, and
// the same accuracy as the run's first alignment of the same pair (the
// pipeline is deterministic).
func checkOutcome(spec batchSpec, first *outcome, got outcome) error {
	if got.backend != spec.backend {
		return fmt.Errorf("similarity backend %q, want %q", got.backend, spec.backend)
	}
	if first != nil && (got.hits1 != first.hits1 || got.mrr != first.mrr) {
		return fmt.Errorf("alignment not deterministic: hits1/mrr %v/%v, first run %v/%v", got.hits1, got.mrr, first.hits1, first.mrr)
	}
	return nil
}

// alignOnce runs Prepare + Align and returns their wall time.
func alignOnce(in *batchInput, cfg core.Config) (*core.Prepared, *core.Result, float64, error) {
	t0 := time.Now()
	prep, err := core.Prepare(in.gs, in.gt, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	res, err := prep.Align(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	return prep, res, time.Since(t0).Seconds(), nil
}

func evaluate(res *core.Result, truth metrics.Truth) outcome {
	r := metrics.EvaluateSim(res.Sim, truth, 1)
	return outcome{hits1: r.PrecisionAt[1], mrr: r.MRR, backend: res.SimBackend}
}

// samples are the per-alignment measurements of a timed loop. A job is
// what a library caller waits for: Prepare, Align and the evaluation.
type samples struct {
	alignS, alignCPU, allocMB, jobS []float64
	wall                            float64
}

// timedLoop aligns the pairs in rotation for window seconds: at least
// minRuns times, and never starting an alignment that the previous one's
// duration says would overrun the window. Tracing is off. It returns the
// samples and the first outcome of each pair aligned.
func timedLoop(spec batchSpec, ins []*batchInput, window float64, minRuns int, rep *report) (*samples, []*outcome) {
	s := &samples{}
	firsts := make([]*outcome, len(ins))
	start := time.Now()
	last := 0.0
	for i := 0; i < minRuns || time.Since(start).Seconds()+last <= window; i++ {
		in := ins[i%len(ins)]
		// Each alignment starts from a collected heap, so garbage from
		// the previous one is not charged to it.
		runtime.GC()
		cpu0, alloc0 := cpuSeconds(), totalAllocMB()
		t0 := time.Now()
		_, res, alignS, err := alignOnce(in, spec.cfg)
		if err != nil {
			rep.op(err)
			continue
		}
		cpu, alloc := cpuSeconds()-cpu0, totalAllocMB()-alloc0
		got := evaluate(res, in.truth)
		last = time.Since(t0).Seconds()
		s.alignS = append(s.alignS, alignS)
		s.alignCPU = append(s.alignCPU, cpu)
		s.allocMB = append(s.allocMB, alloc)
		s.jobS = append(s.jobS, last)
		rep.op(checkOutcome(spec, firsts[i%len(ins)], got))
		if firsts[i%len(ins)] == nil {
			firsts[i%len(ins)] = &got
		}
	}
	s.wall = time.Since(start).Seconds()
	return s, firsts
}

func runBatch(o options, spec batchSpec, rep *report) error {
	ins, setupS, loadS, err := setupBatch(o, spec, rep)
	if err != nil {
		return err
	}
	if o.trace {
		return tracedBatch(o, spec, ins[0], loadS, rep)
	}
	s, firsts := timedLoop(spec, ins, o.seconds, batchPairs, rep)
	// hits1 and mrr are the means over the run's pairs, checked against
	// the reference recorded for this seed.
	var hits, mrrs []float64
	for i, f := range firsts {
		if f == nil {
			return fmt.Errorf("no alignment of pair %d succeeded", i)
		}
		hits = append(hits, f.hits1)
		mrrs = append(mrrs, f.mrr)
	}
	rep.op(checkReference(o, mean(hits), mean(mrrs), spec.minHits1))
	fmt.Printf("# samples %s\n", mustJSON(map[string][]float64{"align_s": s.alignS, "align_cpu_s": s.alignCPU, "alloc_mb": s.allocMB}))
	rep.set("setup_s", setupS, "s")
	rep.set("align_s_p50", median(s.alignS), "s")
	rep.set("align_cpu_s_p50", median(s.alignCPU), "s")
	rep.set("alloc_mb", median(s.allocMB), "MB")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.set("hits1", mean(hits), "fraction")
	rep.set("mrr", mean(mrrs), "fraction")
	rep.set("job_s_p50", median(s.jobS), "s")
	rep.set("job_s_p90", quantile(s.jobS, 0.9), "s")
	rep.set("jobs_per_s", float64(len(s.jobS))/s.wall, "1/s")
	return nil
}
