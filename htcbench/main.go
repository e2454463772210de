// Command htcbench is the repository's end-to-end benchmark. It builds
// its inputs from the seeded generators in internal/datasets, drives the
// pipeline (or an in-process htc-server) for a fixed number of seconds,
// checks every output, and prints one JSON result line:
//
//	htcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json, measured with tracing off. With --trace 1 a separate
// traced run records spans around calls into each module and the result
// carries the per-layer metrics; the spans are written to
// .bench_build/trace-<workload>-seed<n>.json.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates what one run measured and every operation it
// checked. A failed check is counted, never dropped.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// op records one attempted operation; a non-nil err counts it as failed
// and is logged to standard error.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "htcbench: FAIL:", err)
	}
}

// okFrac is the share of attempted operations that succeeded with a
// correct output.
func (r *report) okFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

// options are the command-line arguments every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"htc-topk-800":       func(o options, r *report) error { return runBatch(o, topkSpec, r) },
	"htcl-ann-refine-4k": func(o options, r *report) error { return runBatch(o, annRefineSpec, r) },
	"serve-mix":          runServe,
}

// benchmarkFile is the subset of BENCHMARK.json the program checks its
// output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "htcbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fn, ok := workloads[o.workload]
	listed := false
	for _, w := range bf.Workloads {
		listed = listed || w.Name == o.workload
	}
	if !ok || !listed {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	host := hostInfo()
	fmt.Fprintf(os.Stdout, "# host %s\n", mustJSON(host))

	rep := newReport()
	if err := fn(o, rep); err != nil {
		return err
	}
	rep.set("ok_frac", rep.okFrac(), "fraction")

	// The result carries exactly the metric list BENCHMARK.json names for
	// this mode, with the units it names. Every end-to-end metric must be
	// measured; a per-layer metric of a layer the workload does not run
	// (ann on htc-topk-1k, server on the batch workloads) reads 0.
	want := bf.EndToEnd
	if o.trace {
		want = bf.PerLayer
		for _, m := range want {
			if _, ok := rep.metrics[m.Name]; !ok {
				rep.set(m.Name, 0, m.Unit)
			}
		}
	}
	out := make(map[string]metric, len(want))
	var missing []string
	for _, m := range want {
		got, ok := rep.metrics[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case got.Unit != m.Unit:
			missing = append(missing, fmt.Sprintf("%s (unit %s, want %s)", m.Name, got.Unit, m.Unit))
		default:
			out[m.Name] = got
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload %s did not report: %s", o.workload, strings.Join(missing, ", "))
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, out}
	fmt.Println(mustJSON(line))
	return nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// host describes the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	Time       string `json:"time"`
}

func hostInfo() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	h.L2 = cacheSize(2)
	h.L3 = cacheSize(3)
	return h
}

// cacheSize reads the size of CPU 0's unified or data cache at level.
func cacheSize(level int) string {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(dir + "type")
		if strings.TrimSpace(string(lv)) != fmt.Sprint(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if size, err := os.ReadFile(dir + "size"); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}
