// Command perfbench is the repository's end-to-end benchmark. One run
// generates the dataset from --seed, sets the system up, measures one
// named workload for --seconds, checks every query result against a
// reference result computed with the opposite GPU setting (floats to
// 1e-9 relative), and prints its metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (user-visible
// latency, throughput, set-up time, memory, modeled time). With
// --trace 1 the run instead attaches a span tracer and reports the
// per-layer metrics (operator self times, device counters, serving
// phases, observability costs) that explain the end-to-end numbers.
//
// The benchmark drives the system only through its public functions
// and reads the counters it already exposes; all timing happens in
// this package. See NOTES.md for why each workload exists and which
// layer metric should move which end-to-end metric.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload rolap_gated --seed 1 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// scale is the dataset scale factor of every workload: the smallest
// scale at which the ROLAP device-memory gate calibrates (at 0.02 the
// 12th and 13th largest ROLAP demands coincide).
const scale = 0.05

// setupReps is how many times an untraced run sets the system up; it
// reports the median, so one slow set-up does not move setup_s.
const setupReps = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// outDir receives the traced run's spans (written once, at the end).
	outDir string
}

// workloadSpec is one named workload: how to set the system up (the
// part setup_s times) and how to measure it.
type workloadSpec struct {
	setup   func(seed uint64) (*env, error)
	measure func(e *env, o options, rep *report) error
}

var workloads = map[string]workloadSpec{
	"rolap_gated": rolapGated,
	"bd_cpu":      bdCPU,
	"bd_serve":    bdServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: rolap_gated, bd_cpu or bd_serve")
	seed := fs.Int64("seed", 1, "seed of the generated dataset and request schedule")
	seconds := fs.Float64("seconds", 16, "measurement time in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{workload: *name, seed: uint64(*seed), seconds: *seconds, trace: *traced == 1, outDir: *outDir}
	rep, err := runWorkload(spec, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintln(stderr, "perfbench: run failed its checks:", strings.Join(rep.problems, "; "))
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload sets the system up (setupReps times for an untraced run,
// keeping the last), then measures the workload.
func runWorkload(spec workloadSpec, o options) (*report, error) {
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var e *env
	var setupS []float64
	for i := 0; i < reps; i++ {
		if e != nil {
			// Free the previous set-up before timing the next one, so
			// each set-up starts from the same heap.
			e = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if e, err = spec.setup(o.seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	rep := newReport()
	if err := spec.measure(e, o, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if !o.trace {
		rep.add("setup_s", "s", quantile(setupS, 0.5), len(setupS))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.add("peak_rss_mb", "MB", rss, 1)
	}
	return rep, nil
}

// report is one run's result: the check outcome, the attempt ledger
// and the named metrics, each with the number of samples behind it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples  map[string]int
	order    []string
	problems []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metric{}, samples: map[string]int{}}
}

// add records one metric; n is the number of samples it was computed
// from, printed beside it.
func (r *report) add(name, unit string, v float64, n int) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// fail marks the run incorrect with a reason; the run still prints its
// metrics, then exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// maxProblems bounds the failure reasons kept for printing.
const maxProblems = 10

// write prints one human-readable line per metric, then the JSON line.
func (r *report) write(w io.Writer) error {
	for _, name := range r.order {
		m := r.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", name)
		}
		fmt.Fprintf(w, "%-28s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, r.samples[name])
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "check failed:", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak rss: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM line in /proc/self/status")
}
