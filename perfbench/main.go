// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed wall time and prints, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage (from the repository root, through the launcher that pins the
// environment and builds this package):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//	sweep-batch     Fig. 10 dephasing sweep on the W-word sfq.BatchMesh
//	sweep-twolevel  two-level sweep: scalar sfq.Mesh, MWPM escalation
//	serve-r4k       decode service, open-loop Poisson at 4k req/s
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same work with spans around the calls into each layer and
// prints the per-layer metrics instead. Correctness gates run before any
// timing; a mismatch anywhere prints correct=false and exits 1.
// BENCHMARK.json at the repository root lists every metric with its unit;
// README.md here says which end-to-end metric each layer metric should
// move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/knob"
	"repro/internal/obs"
	"repro/internal/sfq"
)

// pinnedKnobs are the REPRO_* settings every run uses. perfbench/run.sh
// exports exactly these; main refuses any other environment so no run
// inherits a knob by accident.
var pinnedKnobs = map[string]string{
	"REPRO_SFQ_KERNEL":     "bitplane",
	"REPRO_SFQ_WIDTH":      "4",
	"REPRO_TRACE_SAMPLE":   "off",
	"REPRO_SERVE_WEIGHTED": "1",
}

// Metric is one named measurement in the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// errMismatch marks a correctness-gate failure: the run still prints its
// result line (correct=false) before exiting 1.
var errMismatch = errors.New("correctness gate failed")

// mismatchf returns an errMismatch-wrapped error.
func mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

// Run is one invocation's parameters and the metrics it collects.
type Run struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	Workers int

	Attempted, Failed int64
	metrics           map[string]Metric
	heapPeak          float64 // bytes, see MarkHeap
}

// Set records a metric; its unit comes from the metric tables.
func (r *Run) Set(name string, v float64) {
	unit, ok := metricUnit(name)
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.metrics[name] = Metric{Value: v, Unit: unit}
}

// Logf writes one report line (prefixed "# ") to standard output.
func (r *Run) Logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(context.Context, *Run) error{
	"sweep-batch":    sweepBatch.run,
	"sweep-twolevel": sweepTwoLevel.run,
	"serve-r4k":      serveRung(4000).run,
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "measured wall time in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	os.Exit(realMain(*workload, *seed, *seconds, *traceFlag))
}

func realMain(workload string, seed int64, seconds, traceFlag int) int {
	drive, ok := workloads[workload]
	if !ok || seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := checkEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// A hung run must still end inside the driver's per-run limit.
	watchdog := time.AfterFunc(time.Duration(seconds)*time.Second+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(100)
	r := &Run{
		Seed:    seed,
		Seconds: time.Duration(seconds) * time.Second,
		Trace:   traceFlag == 1,
		Workers: runtime.NumCPU(),
		metrics: map[string]Metric{},
	}
	man := obs.NewManifest(map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traceFlag,
		"workers": r.Workers, "sfq_batch_words": sfq.BatchWords, "sfq_kernel": sfq.DefaultKernel.String(),
	})
	if b, err := json.Marshal(man); err == nil {
		r.Logf("manifest %s", b)
	}

	err := drive(context.Background(), r)
	correct := true
	switch {
	case errors.Is(err, errMismatch):
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		correct = false
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !r.Trace {
		r.Set("heap_peak_mb", r.heapPeak/(1<<20))
	}
	res, err := r.result(correct)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// result assembles the output line: every end-to-end metric untraced,
// every per-layer metric traced. A per-layer metric the workload never
// touches (an idle layer) reads 0; a missing end-to-end metric is a bug.
func (r *Run) result(correct bool) (Result, error) {
	want := e2eMetrics
	if r.Trace {
		want = layerMetrics
	}
	out := Result{Correct: correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]Metric{}}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			if !r.Trace {
				return Result{}, fmt.Errorf("workload did not measure %s", m.Name)
			}
			v = Metric{Unit: m.Unit}
		}
		out.Metrics[m.Name] = v
	}
	if out.Attempted < 1 {
		return Result{}, fmt.Errorf("workload attempted no operations")
	}
	return out, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkEnv verifies that the REPRO_* knobs are exactly the pinned set.
// The sfq package resolves its knobs at process start, so they cannot be
// set from here; perfbench/run.sh exports them.
func checkEnv() error {
	if err := knob.CheckEnv(); err != nil {
		return err
	}
	for _, name := range knob.Names() {
		got, want := os.Getenv(name), pinnedKnobs[name]
		if got != want {
			return fmt.Errorf("%s=%q, want %q: run through perfbench/run.sh, which pins the knobs", name, got, want)
		}
	}
	if sfq.BatchWords != 4 || sfq.DefaultKernel != sfq.KernelBitplane {
		return fmt.Errorf("sfq resolved width %d kernel %v, want 4 bitplane", sfq.BatchWords, sfq.DefaultKernel)
	}
	return nil
}

// MarkHeap records the live heap at a phase boundary: it forces a full
// collection, so the figure is the data the run holds at that point and
// not whatever garbage the last collection happened to find reachable.
// Workloads call it between phases, never inside a timed region; the
// largest reading is heap_peak_mb.
func (r *Run) MarkHeap() {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	r.heapPeak = max(r.heapPeak, float64(sample[0].Value.Uint64()))
}
