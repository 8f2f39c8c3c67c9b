package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"blugpu/internal/bench"
	"blugpu/internal/columnar"
	"blugpu/internal/engine"
	"blugpu/internal/plan"
	"blugpu/internal/serve"
	"blugpu/internal/sqlparse"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
	"blugpu/internal/workload"
)

// serveSLOs are the serving layer's default per-class latency
// objectives (internal/serve defaultSLOs). bd_serve configures the
// server with exactly these; every workload judges its per-query
// latencies against their thresholds.
var serveSLOs = map[workload.Class]serve.SLO{
	workload.Simple:       {Threshold: 50 * time.Millisecond, Objective: 0.99},
	workload.Intermediate: {Threshold: 200 * time.Millisecond, Objective: 0.95},
	workload.Complex:      {Threshold: time.Second, Objective: 0.90},
}

// env is one set-up system: an engine with the dataset registered and
// caches warm, the workload's queries, and the reference results every
// measured result is checked against.
type env struct {
	eng     *engine.Engine
	queries []workload.Query
	// gpuOn is the measured configuration; the reference results come
	// from the other one, since results agree across the GPU and CPU
	// paths.
	gpuOn bool
	ref   map[string]*columnar.Table
	// passSeconds is a batch workload's nominal time for one pass over
	// its queries, measured on a 2-core x86-64 box.
	passSeconds float64
}

// newEngine builds the paper's testbed: two K40s (devMem overrides the
// per-device memory when > 0) and the engine's default host degree.
func newEngine(data *workload.Dataset, devMem int64) (*engine.Engine, error) {
	spec := vtime.TeslaK40()
	if devMem > 0 {
		spec.DeviceMemory = devMem
	}
	eng, err := engine.New(engine.Config{Devices: 2, DeviceSpec: spec})
	if err != nil {
		return nil, err
	}
	if err := data.RegisterAll(eng); err != nil {
		return nil, err
	}
	return eng, nil
}

// onePass runs every query once: the set-up's warm-up (fusion cache,
// table statistics, allocator) and the reference pass.
func onePass(eng *engine.Engine, qs []workload.Query, each func(workload.Query, *engine.Result) error) error {
	for _, q := range qs {
		res, err := eng.QueryNamedCtx(context.Background(), q.ID, q.SQL)
		if err != nil {
			return fmt.Errorf("%s: %w", q.ID, err)
		}
		if each != nil {
			if err := each(q, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// rolapGated: the 46 Cognos ROLAP queries with the GPU on and device
// memory calibrated so that exactly the 12 heaviest exceed it (paper
// §5, Table 2). Device layers do most of their work here.
var rolapGated = workloadSpec{
	setup: func(seed uint64) (*env, error) {
		data := workload.Generate(scale, seed)
		full, err := newEngine(data, 0)
		if err != nil {
			return nil, err
		}
		mem, _, err := (&bench.Harness{Data: data, Eng: full}).CalibrateROLAPMemory()
		if err != nil {
			// Gate guard: an uncalibrated run would silently measure
			// the ungated system under the gated workload's name.
			return nil, fmt.Errorf("gate guard: ROLAP memory gate did not calibrate, refusing to run ungated: %w", err)
		}
		eng, err := newEngine(data, mem)
		if err != nil {
			return nil, err
		}
		qs := workload.CognosROLAP()
		if err := onePass(eng, qs, nil); err != nil {
			return nil, err
		}
		return &env{eng: eng, queries: qs, gpuOn: true, passSeconds: 2.9}, nil
	},
	measure: func(e *env, o options, rep *report) error {
		return measureBatch(e, o, rep, func(pass counters) error {
			if pass.memGated == 0 {
				return fmt.Errorf("gate guard: a pass recorded optimizer.mem_gated == 0; the memory gate is not active")
			}
			return nil
		})
	},
}

// bdCPU: all 100 BD Insights queries with the GPU disabled — the
// paper's GPU-off arm. Host layers do all the work.
var bdCPU = workloadSpec{
	setup: func(seed uint64) (*env, error) {
		eng, err := newEngine(workload.Generate(scale, seed), 0)
		if err != nil {
			return nil, err
		}
		eng.SetGPUEnabled(false)
		qs := workload.BDInsights()
		if err := onePass(eng, qs, nil); err != nil {
			return nil, err
		}
		return &env{eng: eng, queries: qs, gpuOn: false, passSeconds: 1.0}, nil
	},
	measure: func(e *env, o options, rep *report) error {
		return measureBatch(e, o, rep, nil)
	},
}

// encodeResult writes the client payload the HTTP layer ships for a
// result: its column names, then its rows as JSON (serve.TableRows).
func encodeResult(w io.Writer, res *engine.Result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(res.Columns); err != nil {
		return err
	}
	return enc.Encode(serve.TableRows(res.Table.Columns()))
}

// reference computes each query's result in the configuration the
// workload does not measure (GPU off for GPU-on workloads and vice
// versa), then restores the measured configuration.
func (e *env) reference() error {
	e.ref = map[string]*columnar.Table{}
	e.eng.SetGPUEnabled(!e.gpuOn)
	defer e.eng.SetGPUEnabled(e.gpuOn)
	return onePass(e.eng, e.queries, func(q workload.Query, res *engine.Result) error {
		e.ref[q.ID] = res.Table
		return nil
	})
}

// check compares one measured result with its reference and counts a
// mismatch as a failed query.
func (e *env) check(rep *report, id string, got *columnar.Table) bool {
	want, ok := e.ref[id]
	if !ok {
		rep.Failed++
		rep.fail("%s: no reference result", id)
		return false
	}
	if diff := diffTables(want, got); diff != "" {
		rep.Failed++
		rep.fail("%s: result differs from its reference: %s", id, diff)
		return false
	}
	return true
}

// floatTolerance is the relative difference allowed between float
// cells: float SUM/AVG is not bit-identical across the GPU and CPU
// group-by paths, nor between two GPU runs, because parallel
// accumulation order changes the last bits. The repository's own
// differential tests compare with the same tolerance; integers,
// strings, NULLs, row counts and row order must match exactly.
const floatTolerance = 1e-9

// diffTables describes the first difference between two results, or
// returns "" when they match.
func diffTables(want, got *columnar.Table) string {
	if want.Rows() != got.Rows() {
		return fmt.Sprintf("%d rows, want %d", got.Rows(), want.Rows())
	}
	wc, gc := want.Columns(), got.Columns()
	if len(wc) != len(gc) {
		return fmt.Sprintf("%d columns, want %d", len(gc), len(wc))
	}
	for c := range wc {
		if wc[c].Name() != gc[c].Name() {
			return fmt.Sprintf("column %d is %q, want %q", c, gc[c].Name(), wc[c].Name())
		}
		for r := 0; r < want.Rows(); r++ {
			if w, g := wc[c].Value(r), gc[c].Value(r); !sameCell(w, g) {
				return fmt.Sprintf("row %d column %q is %v, want %v", r, wc[c].Name(), g, w)
			}
		}
	}
	return ""
}

func sameCell(a, b columnar.Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.Type == columnar.Float64 && b.Type == columnar.Float64 {
		if a.F == b.F {
			return true
		}
		scale := math.Max(math.Max(math.Abs(a.F), math.Abs(b.F)), 1)
		return math.Abs(a.F-b.F) <= floatTolerance*scale
	}
	return a.Equal(b)
}

// batchRun accumulates one closed-loop measurement.
type batchRun struct {
	latMs     map[string][]float64 // per query, one sample per pass
	passS     []float64            // wall time of each pass
	callS     []float64            // time inside QueryNamedCtx calls of each pass
	completed int
	modeledMs float64
	sloMet    int
}

// queryMedians returns each query's median latency over the passes.
func (br *batchRun) queryMedians() []float64 {
	var out []float64
	for _, lat := range br.latMs {
		out = append(out, quantile(lat, 0.5))
	}
	return out
}

// passesFor converts a measuring time into a whole number of passes
// (at least one) at the workload's nominal pass time. Every run of a
// workload then measures the same number of executions of each query,
// so a latency quantile always falls at the same place in the query
// mix; on a slower machine the run takes longer instead.
func (e *env) passesFor(seconds float64) int {
	return max(1, int(math.Round(seconds/e.passSeconds)))
}

// runPasses runs whole passes over the queries with one client. Traced,
// each checked query's record is appended to recs; afterPass sees each
// pass's counter deltas.
func runPasses(e *env, rep *report, passes int, traced bool, recs *[]qrec, afterPass func(counters) error) (*batchRun, error) {
	ctx := context.Background()
	br := &batchRun{latMs: map[string][]float64{}}
	for p := 0; p < passes; p++ {
		passStart := time.Now()
		before := snapshot(e.eng)
		var inCalls time.Duration
		for _, q := range e.queries {
			var pr qrec
			if traced {
				pr = timeParsePlan(q.SQL)
			}
			rep.Attempted++
			t0 := time.Now()
			res, err := e.eng.QueryNamedCtx(ctx, q.ID, q.SQL)
			t1 := time.Now()
			inCalls += t1.Sub(t0)
			if err != nil {
				rep.Failed++
				rep.fail("%s: %v", q.ID, err)
				continue
			}
			if !e.check(rep, q.ID, res.Table) {
				continue
			}
			lat := t1.Sub(t0)
			br.latMs[q.ID] = append(br.latMs[q.ID], ms(lat))
			br.completed++
			br.modeledMs += res.Modeled.Milliseconds()
			if lat <= serveSLOs[q.Class].Threshold {
				br.sloMet++
			}
			if traced {
				pr.seq, pr.start, pr.end, pr.wall = res.TraceSeq, t0, t1, res.Wall
				*recs = append(*recs, pr)
			}
		}
		br.passS = append(br.passS, time.Since(passStart).Seconds())
		br.callS = append(br.callS, inCalls.Seconds())
		if afterPass != nil {
			if err := afterPass(snapshot(e.eng).sub(before)); err != nil {
				return nil, err
			}
		}
	}
	return br, nil
}

// timeParsePlan times the front end on its own (sqlparse.Parse and
// plan.Build), outside the query's span. A statement that fails here
// fails in the engine call too, so its zero timings are never kept.
func timeParsePlan(sql string) qrec {
	var r qrec
	t0 := time.Now()
	stmt, err := sqlparse.Parse(sql)
	t1 := time.Now()
	if err != nil {
		return r
	}
	if _, err := plan.Build(stmt); err != nil {
		return r
	}
	r.parseUs = float64(t1.Sub(t0).Nanoseconds()) / 1e3
	r.buildUs = float64(time.Since(t1).Nanoseconds()) / 1e3
	return r
}

// measureBatch measures a closed-loop batch workload. Untraced, it
// reports the end-to-end metrics over --seconds; traced, every second
// pass runs with a span tracer attached, and it reports the per-layer
// metrics.
func measureBatch(e *env, o options, rep *report, afterPass func(counters) error) error {
	if err := e.reference(); err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	if !o.trace {
		br, err := runPasses(e, rep, e.passesFor(o.seconds), false, nil, afterPass)
		if err != nil {
			return err
		}
		// Throughput over the median pass, and latency quantiles over
		// each query's median across passes: one slow pass (a GC cycle,
		// a noisy neighbour) moves neither. The quantiles are exact over
		// the workload's queries, so on these fixed query sets p99 is the
		// slowest query's typical latency.
		n, qn := br.completed, len(e.queries)
		meds := br.queryMedians()
		rep.add("throughput_qps", "1/s", float64(qn)/quantile(br.passS, 0.5), len(br.passS))
		rep.add("latency_p50_ms", "ms", quantile(meds, 0.50), len(meds))
		rep.add("latency_p95_ms", "ms", quantile(meds, 0.95), len(meds))
		rep.add("latency_p99_ms", "ms", quantile(meds, 0.99), len(meds))
		rep.add("slo_met_frac", "fraction", ratio(float64(br.sloMet), float64(rep.Attempted)), rep.Attempted)
		rep.add("modeled_ms_per_query", "ms", ratio(br.modeledMs, float64(n)), n)
		return nil
	}
	// Untraced and traced passes alternate, so the overhead baseline
	// sees the same machine conditions as the traced passes. The
	// overhead compares time inside the engine calls only, where the
	// tracer does its work; the benchmark's own parse/plan timings of
	// traced passes stay outside it.
	tr := trace.New()
	var recs []qrec
	var baseS, tracedS []float64
	queries := 0
	before := snapshot(e.eng)
	for p := 0; p < max(2, e.passesFor(o.seconds)); p++ {
		traced := p%2 == 1
		if traced {
			e.eng.SetTracer(tr)
		}
		br, err := runPasses(e, rep, 1, traced, &recs, afterPass)
		e.eng.SetTracer(nil)
		if err != nil {
			return err
		}
		queries += br.completed
		if traced {
			tracedS = append(tracedS, br.callS...)
		} else {
			baseS = append(baseS, br.callS...)
		}
	}
	work := snapshot(e.eng).sub(before)
	spans := tr.Spans()
	lay, err := attribute(recs, spans)
	if err != nil {
		rep.fail("traced run: %v", err)
	}
	lay.report(rep, work, queries)
	reportServeIdle(rep)
	rep.add("bench.trace_overhead_frac", "fraction", quantile(tracedS, 0.5)/quantile(baseS, 0.5)-1, len(tracedS))
	return writeSpans(o, spans, benchSpans(recs, "QueryNamedCtx"))
}
