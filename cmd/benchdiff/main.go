// Command benchdiff is the perf-regression gate: it runs the benchdiff
// experiment suite, writes the result as a BENCH_<n>.json snapshot, and
// compares the modeled (deterministic) timings against a committed
// baseline.
//
// Usage:
//
//	benchdiff [-sf 0.02] [-seed N] [-devices 2] [-degree 24]
//	          [-baseline BENCH_0.json] [-out FILE] [-threshold 0.05]
//	          [-wall-threshold 0] [-wall-floor-ms 25] [-wall-repeats 1]
//	          [-trend-slope 0] [-inflate 1.0]
//
// Exit status: 0 when every gated metric is within threshold, 1 when a
// regression is detected, 2 on operational errors. The default scale
// (sf=0.02) is the smallest at which the optimizer routes work to the
// GPU, keeping the gate meaningful and CI-fast at once. -inflate
// multiplies the fresh snapshot's modeled columns and exists to prove
// the gate trips (`benchdiff -inflate 1.2` must fail a 5% threshold);
// an inflated snapshot is written only to an explicit -out.
//
// -wall-threshold graduates wall_ms_p50 from informational to gated:
// the per-query wall-clock median may exceed the baseline's by at most
// that fraction (3.0 allows 4x — generous on purpose, wall clock is
// machine-dependent). Experiments whose baseline median sits below
// -wall-floor-ms are exempt as noise. -wall-repeats N runs the suite N
// times, asserts the modeled columns did not drift across runs, and
// compares the median of the wall columns — one noisy run cannot trip
// the gate.
//
// -trend-slope gates the sustained run's recorded trend series (queue
// depth, shed rate, wall-latency quantiles, sampled by the embedded
// obsd scraper): a least-squares slope above the ceiling — in units
// per second — means the run drifted instead of holding steady state,
// which the medians alone hide. Repeats median the slopes like the
// wall columns. Baselines without series never gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"blugpu/internal/bench"
)

func main() {
	sf := flag.Float64("sf", 0.02, "dataset scale factor")
	seed := flag.Uint64("seed", 20160626, "generator seed")
	devices := flag.Int("devices", 2, "number of simulated GPUs")
	degree := flag.Int("degree", 24, "intra-query parallelism")
	baseline := flag.String("baseline", "BENCH_0.json", "baseline snapshot to compare against")
	out := flag.String("out", "", "where to write the fresh snapshot (default: next free BENCH_<n>.json; none under -inflate)")
	threshold := flag.Float64("threshold", 0.05, "allowed fractional growth of modeled time before the gate fails")
	wallThreshold := flag.Float64("wall-threshold", 0, "allowed fractional growth of wall_ms_p50 (0 leaves it informational)")
	wallFloorMs := flag.Float64("wall-floor-ms", 25, "baseline wall_ms_p50 below this floor never gates (noise)")
	wallRepeats := flag.Int("wall-repeats", 1, "run the suite N times and compare median wall columns")
	trendSlope := flag.Float64("trend-slope", 0, "max in-run trend-series slope, units per second (0 leaves slopes informational)")
	inflate := flag.Float64("inflate", 1.0, "multiply the fresh snapshot's modeled columns (gate self-test)")
	flag.Parse()

	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(code)
	}

	baselineExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "baseline" {
			baselineExplicit = true
		}
	})
	// Resolve the baseline before the suite writes anything: a first run
	// may auto-number its snapshot onto the default baseline path, and
	// that must read as "no baseline yet", not as a self-comparison.
	_, statErr := os.Stat(*baseline)
	baselineExists := statErr == nil
	if !baselineExists && baselineExplicit {
		fail(2, fmt.Errorf("baseline %s: %v", *baseline, statErr))
	}

	if *wallRepeats < 1 {
		fail(2, fmt.Errorf("-wall-repeats must be >= 1, got %d", *wallRepeats))
	}
	fmt.Printf("benchdiff: running suite (sf=%g seed=%d devices=%d degree=%d repeats=%d)...\n",
		*sf, *seed, *devices, *degree, *wallRepeats)
	start := time.Now()
	runs := make([]*bench.Snapshot, 0, *wallRepeats)
	for i := 0; i < *wallRepeats; i++ {
		s, err := bench.TakeSnapshot(bench.Config{SF: *sf, Seed: *seed, Devices: *devices, Degree: *degree})
		if err != nil {
			fail(2, err)
		}
		runs = append(runs, s)
	}
	// MergeRepeats both medians the wall columns and proves the modeled
	// columns are repeat-stable — drift there is an operational error,
	// not a regression, because it breaks the gate's premise.
	cur, err := bench.MergeRepeats(runs)
	if err != nil {
		fail(2, err)
	}
	fmt.Printf("benchdiff: suite done in %.1fs\n", time.Since(start).Seconds())

	if *inflate != 1.0 {
		for i := range cur.Experiments {
			cur.Experiments[i].ModeledOnMs *= *inflate
			cur.Experiments[i].ModeledOffMs *= *inflate
			// H2D bytes and the wall median gate in the same direction:
			// inflating must trip them too.
			cur.Experiments[i].TransferH2DBytes = int64(float64(cur.Experiments[i].TransferH2DBytes) * *inflate)
			cur.Experiments[i].WallMsP50 *= *inflate
		}
		fmt.Printf("benchdiff: modeled, transfer, and wall-p50 columns inflated by %.2fx (gate self-test)\n", *inflate)
	}

	// An inflated snapshot is a self-test artifact, not a measurement:
	// it is written only where -out asks, never auto-numbered into the
	// BENCH_<n>.json series.
	path := *out
	if path == "" && *inflate == 1.0 {
		path = nextSnapshotPath()
	}
	if path != "" {
		if err := cur.WriteFile(path); err != nil {
			fail(2, err)
		}
		fmt.Printf("benchdiff: snapshot written to %s\n", path)
	}

	if !baselineExists {
		fmt.Printf("benchdiff: no baseline at %s; commit the snapshot above as the baseline\n", *baseline)
		return
	}
	base, err := bench.ReadSnapshot(*baseline)
	if err != nil {
		fail(2, err)
	}

	opts := bench.GateOptions{
		Threshold:     *threshold,
		WallThreshold: *wallThreshold,
		WallFloorMs:   *wallFloorMs,
		TrendSlopeMax: *trendSlope,
	}
	regs, err := bench.CompareGated(base, cur, opts)
	if err != nil {
		fail(2, err)
	}
	gateDesc := fmt.Sprintf("modeled time within %+.0f%%", *threshold*100)
	if *wallThreshold > 0 {
		gateDesc += fmt.Sprintf(", wall p50 within %+.0f%% above %.0fms", *wallThreshold*100, *wallFloorMs)
	}
	if *trendSlope > 0 {
		gateDesc += fmt.Sprintf(", trend slope <= %g/s", *trendSlope)
	}
	fmt.Printf("\ncomparison against %s (gate: %s):\n", *baseline, gateDesc)
	bench.WriteDiffOpts(os.Stdout, base, cur, regs, opts)
	if len(regs) > 0 {
		fmt.Printf("\nbenchdiff: %d regression(s):\n", len(regs))
		for _, r := range regs {
			fmt.Printf("  %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Println("\nbenchdiff: no regressions")
}

// nextSnapshotPath returns the first free BENCH_<n>.json, so repeated
// local runs never clobber a committed baseline.
func nextSnapshotPath() string {
	for n := 0; ; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
	}
}
