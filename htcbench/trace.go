package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/htc-align/htc/internal/core"
)

// span is one traced interval. Times are seconds since the tracer
// started; Parent 0 marks a root span. Spans of one alignment or one
// server job share a Run id.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	Source string             `json:"source"`
}

// tracer keeps spans in memory; write saves them once the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// spent is the time add itself took, the cost of tracing.
	spent time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id. source says where its times
// came from: "call" for a call the benchmark timed itself, "progress" for
// pipeline progress events, "timings" for the pipeline's own stage
// timings, "server" for timestamps a server job reported.
func (t *tracer) add(parent int, run, name, source string, start, end time.Time, attrs map[string]float64) int {
	t0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	defer func() { t.spent += time.Since(t0) }()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: run, Name: name, Source: source,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(), Attrs: attrs,
	})
	return id
}

// call times fn as a span and returns its duration in seconds.
func (t *tracer) call(parent int, run, name string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, run, name, "call", start, end, nil)
	return end.Sub(start).Seconds()
}

// write saves every span, with the host they were measured on.
func (t *tracer) write(path string, h host, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Host     host   `json:"host"`
		Spans    []span `json:"spans"`
	}{workload, seed, h, t.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracePath is where a traced run leaves its spans.
func tracePath(o options) string {
	return filepath.Join(".bench_build", "trace-"+o.workload+"-seed"+itoa(o.seed)+".json")
}

// progressEvent is one pipeline Progress observation and when it arrived.
type progressEvent struct {
	at time.Time
	p  core.Progress
}

// progressLog is a Config.Progress observer that keeps every event.
type progressLog struct {
	mu     sync.Mutex
	events []progressEvent
}

func (l *progressLog) observe(p core.Progress) {
	now := time.Now()
	l.mu.Lock()
	l.events = append(l.events, progressEvent{at: now, p: p})
	l.mu.Unlock()
}

// stage returns the events of one stage, in arrival order.
func (l *progressLog) stage(name string) []progressEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []progressEvent
	for _, e := range l.events {
		if e.p.Stage == name {
			out = append(out, e)
		}
	}
	return out
}

// stageSpans turns one run's progress events and stage timings into
// spans under parent. Each stage span ends at the stage's last progress
// event and lasts the stage's busy time from the timings; a stage that
// emitted no event is placed right after the previous one. Iteration
// spans (epochs, fine-tune iterations per orbit, refine iterations) run
// between consecutive events of their stage. It returns the stage
// durations it placed and the iteration lengths per stage.
func stageSpans(t *tracer, parent int, run string, from time.Time, log *progressLog, stages []stageTime) (placed float64, iters map[string][]float64) {
	iters = make(map[string][]float64)
	cursor := from
	for _, st := range stages {
		if st.dur <= 0 {
			continue
		}
		evs := log.stage(st.name)
		end := cursor.Add(st.dur)
		if len(evs) > 0 {
			end = evs[len(evs)-1].at
		}
		start := end.Add(-st.dur)
		id := t.add(parent, run, st.name, "timings", start, end, map[string]float64{"bytes": float64(st.bytes)})
		placed += st.dur.Seconds()
		if !iterStages[st.name] {
			cursor = end
			continue
		}
		// Training and refinement report the end of each iteration;
		// fine-tuning reports the start of each iteration and the end of
		// each orbit, so its iterations run between consecutive events of
		// one orbit.
		prev := map[int]time.Time{}
		for _, e := range evs {
			key := 0
			if st.name == core.StageFineTune {
				key = e.p.Orbit
			}
			begin, ok := prev[key]
			prev[key] = e.at
			if !ok {
				if st.name == core.StageFineTune {
					continue
				}
				begin = start
			}
			t.add(id, run, st.name+".iter", "progress", begin, e.at, map[string]float64{"orbit": float64(e.p.Orbit)})
			iters[st.name] = append(iters[st.name], e.at.Sub(begin).Seconds())
		}
		cursor = end
	}
	return placed, iters
}

// iterStages are the stages whose progress events delimit iterations.
var iterStages = map[string]bool{core.StageTrain: true, core.StageFineTune: true, core.StageRefine: true}

// stageTime is one stage's busy time and allocated bytes.
type stageTime struct {
	name  string
	dur   time.Duration
	bytes uint64
}

func prepStages(pt core.StageTimings) []stageTime {
	return []stageTime{
		{core.StageOrbitCounts, pt.OrbitCounting, pt.OrbitCountingBytes},
		{core.StageLaplacians, pt.Laplacians, pt.LaplaciansBytes},
	}
}

func alignStages(rt core.StageTimings) []stageTime {
	return []stageTime{
		{core.StageOrbitCounts, rt.OrbitCounting, rt.OrbitCountingBytes},
		{core.StageLaplacians, rt.Laplacians, rt.LaplaciansBytes},
		{core.StageTrain, rt.Training, rt.TrainingBytes},
		{core.StageFineTune, rt.FineTuning, rt.FineTuningBytes},
		{core.StageIntegrate, rt.Integration, rt.IntegrationBytes},
		{core.StageRefine, rt.Refinement, rt.RefinementBytes},
	}
}
