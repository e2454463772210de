package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/ingest"
	"github.com/htc-align/htc/internal/metrics"
	"github.com/htc-align/htc/internal/server"
)

// serve-mix drives an in-process htc-server (default Options) behind a
// loopback listener with closed-loop clients, each on one connection. A
// client submits, then polls its job at pollInterval until it is done,
// then sends its next request.
const (
	// serveClients is the number of clients: one per CPU of a 2-CPU host,
	// never more than the CPUs there are. The recorded hits1/mrr
	// references average over two clients' sequences.
	serveClients = 2
	pollInterval = 5 * time.Millisecond
	// pairPool is how many distinct built-in pairs the clients share —
	// more than the prepared-artifact cache holds (8), so it evicts.
	pairPool = 12
	// poolRemove is the edge-removal ratio of the single-network pairs.
	poolRemove = 0.2
	// evalPrefix is how many of each client's evaluated alignment
	// results, in request order, hits1 and mrr average over. The prefix
	// is fixed so the figures do not depend on how many requests fit in
	// the window.
	evalPrefix = 30
	// serverStarts is how many times set-up starts a server; setup_s is
	// the median.
	serverStarts = 9
)

// schedule is each client's repeating sequence of operations. Per 20
// operations: 8 exact repeats of one of the client's completed
// alignments (result-cache hits), 7 new configs over a pair the client
// already used (prepared-cache hits unless evicted), 2 pairs from the
// pool the client has not used lately (cold orbit counting), 2 edge-list
// dataset uploads each followed by an align on the upload, and 1
// refinement of an earlier job. The order, the pair sizes and the
// configs are fixed, so the seed changes the data but not the amount of
// work; a seeded generator picks which earlier job a repeat or refine
// names, the generators' seeds and the pipeline seed.
var schedule = strings.Fields(`cold config repeat config repeat upload repeat config repeat refine
	config repeat cold config repeat upload config repeat config repeat`)

// pairSpec names a built-in generated pair.
type pairSpec struct {
	dataset string
	n       int
	seed    int64
}

var poolDatasets = []string{"econ", "bn", "douban", "allmovie-imdb", "flickr-myspace"}

// makePool derives the shared pair pool from the seed.
func makePool(seed int64) []pairSpec {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]pairSpec, pairPool)
	for i := range pool {
		pool[i] = pairSpec{dataset: poolDatasets[i%len(poolDatasets)], n: 500 + 50*(i%11), seed: rng.Int63n(1 << 30)}
	}
	return pool
}

// configs are the small pipeline configs new-config operations cycle
// through; a cold pair runs coldConfig, which needs stage-1 orbit counts.
var (
	configs = []core.Config{
		{Variant: core.LowOrder, Epochs: 2}, {Variant: core.LowOrderFT, Epochs: 3},
		{Variant: core.LowOrder, Epochs: 4}, {Variant: core.LowOrderFT, Epochs: 2},
		{Variant: core.LowOrder, Epochs: 3}, {Variant: core.LowOrderFT, Epochs: 4},
	}
	coldConfig = core.Config{Variant: core.HighOrder, K: 2, Epochs: 2}
)

// jobConfig completes a schedule config with the small widths every
// serve-mix job uses and a fresh pipeline seed, so it is a new request.
func (c *client) jobConfig(cfg core.Config) core.Config {
	cfg.Hidden, cfg.Embed = 32, 16
	cfg.Seed = 1 + c.rng.Int63n(1<<20)
	return cfg
}

// request is one operation as a client saw it; a failed one carries only
// its kind and latency.
type request struct {
	kind     string
	latency  float64
	submitS  float64
	putS     float64 // uploads: the PUT /v1/datasets/{id} part
	polls    int
	info     *server.JobInfo // align jobs only
	computed bool            // the job ran the pipeline (not a cache hit)
}

// client is one closed-loop load generator.
type client struct {
	id      int
	base    string
	hc      *http.Client
	rng     *rand.Rand
	pool    []pairSpec
	anchors map[pairSpec]int // ground-truth anchors of each pool pair
	tr      *tracer
	rep     *reportSink
	done    []request
	history []completedAlign
	used    []pairSpec
	ops     int
	cold    int
	configs int
	uploads int
	evals   [][2]float64 // hits1, mrr of evaluated alignments in order
}

// completedAlign is an alignment the client can repeat or refine.
type completedAlign struct {
	req    server.AlignRequest
	jobID  string
	result *server.AlignResult
}

// reportSink serialises failure reports from concurrent clients.
type reportSink struct {
	mu  sync.Mutex
	rep *report
}

func (s *reportSink) op(err error) {
	s.mu.Lock()
	s.rep.op(err)
	s.mu.Unlock()
}

// do sends one HTTP request and decodes a JSON answer into out, checking
// the status code against the accepted ones.
func (c *client) do(method, path string, body any, out any, ok ...int) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	for _, code := range ok {
		if resp.StatusCode == code {
			if out != nil {
				if err := json.Unmarshal(raw, out); err != nil {
					return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
				}
			}
			return resp.StatusCode, nil
		}
	}
	return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
}

// align submits an alignment and polls it to completion. A 200 answer is
// a result-cache hit and needs no polling.
func (c *client) align(req server.AlignRequest) (request, error) {
	r := request{kind: "align"}
	t0 := time.Now()
	var info server.JobInfo
	code, err := c.do("POST", "/v1/align", req, &info, http.StatusOK, http.StatusAccepted)
	r.submitS = time.Since(t0).Seconds()
	if err != nil {
		return r, err
	}
	r.computed = code == http.StatusAccepted
	for info.Status != server.StatusDone {
		if info.Status == server.StatusFailed || info.Status == server.StatusCancelled {
			return r, fmt.Errorf("job %s %s: %s", info.ID, info.Status, info.Error)
		}
		time.Sleep(pollInterval)
		r.polls++
		if _, err := c.do("GET", "/v1/jobs/"+info.ID, nil, &info, http.StatusOK); err != nil {
			return r, err
		}
	}
	r.latency = time.Since(t0).Seconds()
	if info.Result == nil {
		return r, fmt.Errorf("job %s done without a result", info.ID)
	}
	r.info = &info
	if c.tr != nil {
		c.traceJob(t0, r)
	}
	return r, nil
}

// traceJob records a job's client span with the queue and run intervals
// the server reported under it.
func (c *client) traceJob(t0 time.Time, r request) {
	info := r.info
	id := c.tr.add(0, info.ID, "client."+r.kind, "call", t0, t0.Add(time.Duration(r.latency*float64(time.Second))), map[string]float64{"polls": float64(r.polls)})
	c.tr.add(id, info.ID, "client.submit", "call", t0, t0.Add(time.Duration(r.submitS*float64(time.Second))), nil)
	if r.computed && info.StartedAt != nil && info.FinishedAt != nil {
		c.tr.add(id, info.ID, "server.queue", "server", info.SubmittedAt, *info.StartedAt, nil)
		c.tr.add(id, info.ID, "server.run", "server", *info.StartedAt, *info.FinishedAt, nil)
	}
}

// checkAlign verifies a finished alignment: pairs present, evaluation
// present with the expected anchor count, and, for a repeat, the same
// answer as the job it repeats.
func checkAlign(res *server.AlignResult, anchors int, want *server.AlignResult) error {
	if len(res.Pairs) == 0 {
		return fmt.Errorf("alignment returned no pairs")
	}
	if res.Eval == nil || res.Eval.Anchors != anchors {
		return fmt.Errorf("evaluation missing or over the wrong anchors: %+v, want %d anchors", res.Eval, anchors)
	}
	if want != nil && !(reflect.DeepEqual(res.Pairs, want.Pairs) && reflect.DeepEqual(res.Eval, want.Eval) && reflect.DeepEqual(res.PerOrbit, want.PerOrbit)) {
		return fmt.Errorf("cached result differs from the job it repeats")
	}
	return nil
}

// step runs the client's next scheduled operation.
func (c *client) step() {
	kind := schedule[c.ops%len(schedule)]
	c.ops++
	t0 := time.Now()
	var err error
	switch kind {
	case "repeat":
		prev := c.history[c.rng.Intn(len(c.history))]
		err = c.runAlign(prev.req, prev.result, false)
	case "config":
		ps := c.used[c.configs%len(c.used)]
		cfg := c.jobConfig(configs[c.configs%len(configs)])
		c.configs++
		err = c.runAlign(c.alignRequest(ps, cfg), nil, true)
	case "cold":
		ps := c.pool[(c.id*pairPool/2+c.cold)%len(c.pool)]
		c.cold++
		c.used = append(c.used, ps)
		err = c.runAlign(c.alignRequest(ps, c.jobConfig(coldConfig)), nil, true)
	case "upload":
		err = c.upload()
	case "refine":
		err = c.refine()
	}
	if err != nil {
		c.done = append(c.done, request{kind: kind, latency: time.Since(t0).Seconds()})
	}
	c.rep.op(err)
}

func (c *client) alignRequest(ps pairSpec, cfg core.Config) server.AlignRequest {
	return server.AlignRequest{Dataset: ps.dataset, N: ps.n, DataSeed: ps.seed, Remove: poolRemove, Config: cfg, HitsAt: []int{1}}
}

// runAlign aligns req and checks the result; a new built-in request that
// completes joins the client's repeatable history.
func (c *client) runAlign(req server.AlignRequest, want *server.AlignResult, remember bool) error {
	r, err := c.align(req)
	if err != nil {
		return err
	}
	anchors := c.anchors[pairSpec{req.Dataset, req.N, req.DataSeed}]
	if err := checkAlign(r.info.Result, anchors, want); err != nil {
		return err
	}
	c.done = append(c.done, r)
	c.evals = append(c.evals, [2]float64{r.info.Result.Eval.PrecisionAt[1], r.info.Result.Eval.MRR})
	if remember {
		c.history = append(c.history, completedAlign{req: req, jobID: r.info.ID, result: r.info.Result})
	}
	return nil
}

// countAnchors is how many ground-truth anchors a pool pair has, from
// the same generators the server runs for it.
func countAnchors(ps pairSpec) (int, error) {
	var truth metrics.Truth
	switch ps.dataset {
	case "econ":
		_, truth = datasets.MakeTarget(datasets.Econ(ps.n, ps.seed), poolRemove, ps.seed+1)
	case "bn":
		_, truth = datasets.MakeTarget(datasets.BN(ps.n, ps.seed), poolRemove, ps.seed+1)
	case "douban":
		truth = datasets.Douban(ps.n, ps.seed).Truth
	case "allmovie-imdb":
		truth = datasets.AllmovieImdb(ps.n, ps.seed).Truth
	case "flickr-myspace":
		truth = datasets.FlickrMyspace(ps.n, ps.seed).Truth
	default:
		return 0, fmt.Errorf("no anchor count for dataset %q", ps.dataset)
	}
	return truth.NumAnchors(), nil
}

// upload PUTs a freshly generated attribute-free pair as edge lists with
// an id-keyed truth, then aligns on it. The edge-list format cannot carry
// isolated nodes, so the truth lists only anchors whose both ends have
// edges.
func (c *client) upload() error {
	c.uploads++
	id := fmt.Sprintf("c%d-u%d", c.id, c.uploads)
	n := 400 + 50*(c.uploads%5)
	src := graph.ErdosRenyi(n, 8/float64(n-1), c.rng)
	tgt, truth := datasets.MakeTarget(src, 0.15, c.rng.Int63n(1<<30))
	var sb, tb, truthBuf strings.Builder
	if err := ingest.Write(&sb, src, nil, "edgelist"); err != nil {
		return err
	}
	if err := ingest.Write(&tb, tgt, nil, "edgelist"); err != nil {
		return err
	}
	anchors := 0
	for s, t := range truth {
		if t >= 0 && src.Degree(s) > 0 && tgt.Degree(t) > 0 {
			fmt.Fprintf(&truthBuf, "%d %d\n", s, t)
			anchors++
		}
	}
	up := server.DatasetUpload{Format: "edgelist", Source: sb.String(), Target: tb.String(), Truth: truthBuf.String()}
	t0 := time.Now()
	var info server.DatasetInfo
	if _, err := c.do("PUT", "/v1/datasets/"+id, up, &info, http.StatusCreated); err != nil {
		return err
	}
	putS := time.Since(t0).Seconds()
	if c.tr != nil {
		c.tr.add(0, id, "client.upload", "call", t0, time.Now(), nil)
	}
	if info.Anchors != anchors {
		return fmt.Errorf("upload %s: server resolved %d anchors, want %d", id, info.Anchors, anchors)
	}
	r, err := c.align(server.AlignRequest{Dataset: id, Config: c.jobConfig(configs[c.uploads%len(configs)]), HitsAt: []int{1}})
	if err != nil {
		return err
	}
	if err := checkAlign(r.info.Result, anchors, nil); err != nil {
		return err
	}
	// The upload and the alignment on it are one operation to the client.
	r.kind, r.putS, r.latency = "upload", putS, time.Since(t0).Seconds()
	c.done = append(c.done, r)
	c.evals = append(c.evals, [2]float64{r.info.Result.Eval.PrecisionAt[1], r.info.Result.Eval.MRR})
	return nil
}

// refine asks the server to refine one of the client's recent jobs.
func (c *client) refine() error {
	recent := c.history[max(0, len(c.history)-20):]
	prev := recent[c.rng.Intn(len(recent))]
	t0 := time.Now()
	var out server.RefineResult
	if _, err := c.do("POST", "/v1/refine", server.RefineRequest{Job: prev.jobID, RefineIters: 2, HitsAt: []int{1}}, &out, http.StatusOK); err != nil {
		return err
	}
	c.done = append(c.done, request{kind: "refine", latency: time.Since(t0).Seconds()})
	if c.tr != nil {
		c.tr.add(0, prev.jobID, "client.refine", "call", t0, time.Now(), nil)
	}
	if out.EvalAfter == nil || len(out.Pairs) == 0 || len(out.MNC) != out.Iters+1 {
		return fmt.Errorf("refine of job %s: incomplete answer", prev.jobID)
	}
	return nil
}

// liveServer is a started in-process server on a loopback listener.
type liveServer struct {
	srv   *server.Server
	hs    *http.Server
	base  string
	ended chan struct{}
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: server.New(server.Options{}), base: "http://" + ln.Addr().String(), ended: make(chan struct{})}
	ls.hs = &http.Server{Handler: ls.srv}
	go func() {
		defer close(ls.ended)
		ls.hs.Serve(ln)
	}()
	resp, err := http.Get(ls.base + "/v1/healthz")
	if err != nil {
		ls.stop()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ls.stop()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return ls, nil
}

// stop shuts the listener and the worker pool down and waits for both.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.hs.Shutdown(ctx)
	<-ls.ended
	ls.srv.Close()
}

// counters reads the server's Prometheus counters.
func (ls *liveServer) counters() (map[string]float64, error) {
	resp, err := http.Get(ls.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// setupServe starts the server and derives the run's pair pool with the
// ground-truth anchor count of every pool pair, serverStarts times. It
// keeps the last server running and returns the median set-up time.
func setupServe(seed int64) (*liveServer, []pairSpec, map[pairSpec]int, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		ls, err := startServer()
		if err != nil {
			return nil, nil, nil, 0, err
		}
		pool := makePool(seed)
		anchors := make(map[pairSpec]int, len(pool))
		for _, ps := range pool {
			if anchors[ps], err = countAnchors(ps); err != nil {
				ls.stop()
				return nil, nil, nil, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if i == serverStarts-1 {
			return ls, pool, anchors, median(times), nil
		}
		ls.stop()
	}
}

func runServe(o options, rep *report) error {
	ls, pool, anchors, setupS, err := setupServe(o.seed)
	if err != nil {
		return err
	}
	defer ls.stop()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	sink := &reportSink{rep: rep}
	clients := make([]*client, min(serveClients, runtime.NumCPU()))
	for i := range clients {
		clients[i] = &client{
			id: i, base: ls.base, pool: pool, anchors: anchors, tr: tr, rep: sink,
			rng: rand.New(rand.NewSource(o.seed*1000 + int64(i))),
			hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		}
	}
	runtime.GC()
	cpu0, alloc0 := cpuSeconds(), totalAllocMB()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Since(start).Seconds() < o.seconds {
				c.step()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	cpu, alloc := cpuSeconds()-cpu0, totalAllocMB()-alloc0
	for _, c := range clients {
		c.hc.CloseIdleConnections()
	}

	var all []request
	var hits, mrrs []float64
	for _, c := range clients {
		all = append(all, c.done...)
		if len(c.evals) < evalPrefix {
			rep.op(fmt.Errorf("client %d evaluated %d alignments, fewer than %d", c.id, len(c.evals), evalPrefix))
		}
		for _, e := range c.evals[:min(evalPrefix, len(c.evals))] {
			hits = append(hits, e[0])
			mrrs = append(mrrs, e[1])
		}
	}
	var latency, runS, queueS, overheadS, submitS, polls, uploadS, refineS []float64
	var computed []*server.JobInfo
	for _, r := range all {
		latency = append(latency, r.latency)
		switch r.kind {
		case "upload":
			uploadS = append(uploadS, r.putS)
		case "refine":
			refineS = append(refineS, r.latency)
		}
		if r.info == nil {
			continue
		}
		submitS = append(submitS, r.submitS)
		if !r.computed {
			continue
		}
		info := r.info
		computed = append(computed, info)
		q, run := info.StartedAt.Sub(info.SubmittedAt).Seconds(), info.FinishedAt.Sub(*info.StartedAt).Seconds()
		queueS = append(queueS, q)
		runS = append(runS, run)
		overheadS = append(overheadS, r.latency-q-run)
		polls = append(polls, float64(r.polls))
	}
	hitsMean, mrrMean := mean(hits), mean(mrrs)
	rep.op(checkReference(o, hitsMean, mrrMean, 0.2))

	if !o.trace {
		rep.set("setup_s", setupS, "s")
		rep.set("align_s_p50", median(runS), "s")
		rep.set("align_cpu_s_p50", cpu/float64(max(1, len(computed))), "s")
		rep.set("alloc_mb", alloc/float64(len(all)), "MB")
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
		rep.set("hits1", hitsMean, "fraction")
		rep.set("mrr", mrrMean, "fraction")
		rep.set("job_s_p50", median(latency), "s")
		rep.set("job_s_p90", quantile(latency, 0.9), "s")
		rep.set("jobs_per_s", float64(len(all))/wall, "1/s")
		return nil
	}

	ctr, err := ls.counters()
	if err != nil {
		return err
	}
	frac := func(hit, miss string) float64 {
		if ctr[hit]+ctr[miss] == 0 {
			return 0
		}
		return ctr[hit] / (ctr[hit] + ctr[miss])
	}
	rep.set("server.submit_s_p50", median(submitS), "s")
	rep.set("server.queue_wait_s_p50", median(queueS), "s")
	rep.set("server.run_s_p50", median(runS), "s")
	rep.set("server.overhead_s_p50", median(overheadS), "s")
	rep.set("server.polls_per_job", mean(polls), "count")
	rep.set("server.cache_hit_frac", frac("htc_cache_hits_total", "htc_cache_misses_total"), "fraction")
	rep.set("server.prepared_hit_frac", frac("htc_prepared_hits_total", "htc_prepared_misses_total"), "fraction")
	rep.set("server.refine_s_p50", median(refineS), "s")
	rep.set("server.upload_s_p50", median(uploadS), "s")
	rep.set("par.cpu_util", cpu/(wall*float64(runtime.GOMAXPROCS(0))), "fraction")
	// The clients' spans are the only tracing here, so the overhead is the
	// share of the window spent recording them.
	rep.set("trace.overhead_frac", tr.spent.Seconds()/wall, "fraction")
	serveStageMetrics(computed, rep)
	return tr.write(tracePath(o), hostInfo(), o.workload, o.seed)
}

// serveStageMetrics reports the pipeline stage medians of the jobs the
// server computed, from the stage timings each result carries. Stage 1
// and 2 medians cover only the jobs that built them (cold pairs).
func serveStageMetrics(jobs []*server.JobInfo, rep *report) {
	var orbitS, gomS, prepS, trainS, epochS, ftS, ftIters, trusted, ftMB, integS, otherS []float64
	for _, j := range jobs {
		t := j.Result.TimingsMS
		if t.OrbitCounting > 0 {
			orbitS = append(orbitS, t.OrbitCounting/1e3)
		}
		if t.Laplacians > 0 {
			gomS = append(gomS, t.Laplacians/1e3)
		}
		if !j.Result.PreparedCached {
			prepS = append(prepS, (t.OrbitCounting+t.Laplacians)/1e3)
		}
		trainS = append(trainS, t.Training/1e3)
		if j.Result.EpochsTrained > 0 {
			epochS = append(epochS, t.Training/1e3/float64(j.Result.EpochsTrained))
		}
		ftS = append(ftS, t.FineTuning/1e3)
		var it, tr int
		for _, po := range j.Result.PerOrbit {
			it += po.Iters
			tr += po.Trusted
		}
		ftIters = append(ftIters, float64(it))
		trusted = append(trusted, float64(tr))
		ftMB = append(ftMB, float64(t.FineTuningBytes)/(1<<20))
		integS = append(integS, t.Integration/1e3)
		// On a prepared-cache miss the server folds the Prepare time into
		// the stage-1/2 figures but not into Total.
		other := t.Total - t.Training - t.FineTuning - t.Integration - t.Refinement
		if j.Result.PreparedCached {
			other -= t.OrbitCounting + t.Laplacians
		}
		otherS = append(otherS, other/1e3)
	}
	rep.set("orbit.count_s", median(orbitS), "s")
	rep.set("gom.build_s", median(gomS), "s")
	rep.set("core.prepare_s", median(prepS), "s")
	rep.set("core.other_s", median(otherS), "s")
	rep.set("nn.train_s", median(trainS), "s")
	rep.set("nn.epoch_s_p50", median(epochS), "s")
	rep.set("align.finetune_s", median(ftS), "s")
	rep.set("align.finetune_iters", median(ftIters), "count")
	rep.set("align.trusted", median(trusted), "count")
	rep.set("align.finetune_alloc_mb", median(ftMB), "MB")
	rep.set("align.integrate_s", median(integS), "s")
}
