package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"blugpu/internal/engine"
	"blugpu/internal/trace"
)

// qrec is one traced query as the benchmark saw it: its own span
// around the call into the system (QueryNamedCtx, or serve.Server.Do),
// the engine's wall breakdown, and for served queries the serving
// phases and the span around the Serialize callback.
type qrec struct {
	seq        uint64 // engine.Result.TraceSeq
	start, end time.Time
	wall       engine.WallBreakdown

	served           bool
	wait, execWall   time.Duration
	serStart, serEnd time.Time

	// Front-end timings of standalone sqlparse.Parse / plan.Build calls
	// made just before the query, outside its span.
	parseUs, buildUs float64
}

// opLayers are the engine operators reported as engine.<op>_ms.
var opLayers = map[string]string{
	"scan": "engine.scan_ms", "filter": "engine.filter_ms", "join": "engine.join_ms",
	"derive": "engine.derive_ms", "groupby": "engine.groupby_ms", "sort": "engine.sort_ms",
	"window-sort": "engine.sort_ms", "project": "engine.project_ms",
}

// wallLayers lists, in print order, every layer a traced query's wall
// time is split into. Their per-query sum is the traced wall time.
var wallLayers = []string{
	"serve.queue_wait_ms", "engine.parse_ms", "engine.plan_ms",
	"engine.scan_ms", "engine.filter_ms", "engine.join_ms", "engine.derive_ms",
	"engine.groupby_ms", "groupby.gpu_ms", "sched.place_ms",
	"engine.sort_ms", "bsort.job_ms", "engine.project_ms",
	"serve.serialize_ms", "serve.overhead_ms", "engine.unattributed_ms",
}

// layerOf maps an engine span to the layer its self time belongs to.
// The query root's self time (operator gaps, limit, result assembly)
// is unattributed.
func layerOf(s trace.Span) string {
	switch s.Cat {
	case "op":
		if l, ok := opLayers[s.Name]; ok {
			return l
		}
	case "gpu":
		return "groupby.gpu_ms"
	case "sched":
		return "sched.place_ms"
	case "sort-job":
		return "bsort.job_ms"
	}
	return "engine.unattributed_ms"
}

// layers holds the traced queries' per-layer totals.
type layers struct {
	n           int                // traced queries
	totalMs     map[string]float64 // per wall layer, summed over queries
	wallMs      float64            // summed traced wall time
	maxErr      time.Duration      // largest per-query reconcile error
	evalChainMs float64
	sortJobs    int
	execMs      [3]float64 // engine-measured host, GPU and gather wall

	parseUs  []float64
	buildUs  []float64
	perQuery map[string][]float64 // per-query samples of serving phases
}

func hasWall(s trace.Span) bool { return !s.WallStart.IsZero() && !s.WallEnd.IsZero() }

// selfTime is a span's duration minus the part of it that its
// children's intervals cover.
func selfTime(start, end time.Time, children []trace.Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		if !hasWall(c) {
			continue
		}
		a, b := c.WallStart, c.WallEnd
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		} else if v.b.After(curB) {
			curB = v.b
		}
	}
	covered += curB.Sub(curA)
	return end.Sub(start) - covered
}

// reconcileTolerance absorbs nothing but clock-read ordering: every
// term is an exact difference of monotonic timestamps.
const reconcileTolerance = time.Microsecond

// attribute splits each traced query's wall time into layer self times
// and checks that they sum back to it: the engine's span tree must nest
// (children inside parents, siblings disjoint) for the self times to
// add up, and no residue may be negative.
func attribute(recs []qrec, spans []trace.Span) (*layers, error) {
	bySeq := map[uint64][]trace.Span{}
	for _, s := range spans {
		bySeq[s.Query] = append(bySeq[s.Query], s)
	}
	l := &layers{n: len(recs), totalMs: map[string]float64{}, perQuery: map[string][]float64{}}
	var firstErr error
	for _, r := range recs {
		l.parseUs = append(l.parseUs, r.parseUs)
		l.buildUs = append(l.buildUs, r.buildUs)
		tree := bySeq[r.seq]
		children := map[uint64][]trace.Span{}
		var root *trace.Span
		for i, s := range tree {
			if s.Parent == 0 {
				root = &tree[i]
				continue
			}
			children[uint64(s.Parent)] = append(children[uint64(s.Parent)], s)
		}
		if root == nil || !hasWall(*root) {
			return nil, fmt.Errorf("query seq %d has no engine root span", r.seq)
		}
		w := r.end.Sub(r.start)
		terms := map[string]time.Duration{}
		for _, s := range tree {
			if !hasWall(s) {
				continue
			}
			self := selfTime(s.WallStart, s.WallEnd, children[uint64(s.ID)])
			terms[layerOf(s)] += self
			if s.Cat == "op" && s.Name == "groupby" {
				var last time.Time
				for _, c := range children[uint64(s.ID)] {
					if c.Cat == "eval" && c.WallEnd.After(last) {
						last = c.WallEnd
					}
				}
				if !last.IsZero() {
					l.evalChainMs += ms(last.Sub(s.WallStart))
				}
			}
			if s.Cat == "sort-job" {
				l.sortJobs++
			}
		}
		rootDur := root.WallEnd.Sub(root.WallStart)
		l.execMs[0] += ms(r.wall.ExecHost)
		l.execMs[1] += ms(r.wall.ExecGPU)
		l.execMs[2] += ms(r.wall.ExecGather)
		terms["engine.parse_ms"] += r.wall.Parse
		terms["engine.plan_ms"] += r.wall.Plan
		if r.served {
			ser := r.serEnd.Sub(r.serStart)
			terms["serve.queue_wait_ms"] += r.wait
			terms["serve.serialize_ms"] += ser
			// Inside Do: the engine call is parse + plan + its root
			// span + call overhead; the rest of Do is admission, qlog,
			// prof and trace-ring work.
			terms["engine.unattributed_ms"] += r.execWall - r.wall.Parse - r.wall.Plan - rootDur
			terms["serve.overhead_ms"] += w - r.wait - r.execWall - ser
			l.perQuery["serve.queue_wait_ms"] = append(l.perQuery["serve.queue_wait_ms"], ms(r.wait))
			l.perQuery["serve.exec_ms"] = append(l.perQuery["serve.exec_ms"], ms(r.execWall))
			l.perQuery["serve.serialize_ms"] = append(l.perQuery["serve.serialize_ms"], ms(ser))
			l.perQuery["serve.overhead_ms"] = append(l.perQuery["serve.overhead_ms"], ms(w-r.wait-r.execWall-ser))
		} else {
			terms["engine.unattributed_ms"] += w - r.wall.Parse - r.wall.Plan - rootDur
		}
		var sum time.Duration
		for name, v := range terms {
			if v < -reconcileTolerance && firstErr == nil {
				firstErr = fmt.Errorf("query seq %d: layer %s is negative (%v)", r.seq, name, v)
			}
			sum += v
			l.totalMs[name] += ms(v)
		}
		e := sum - w
		if e < 0 {
			e = -e
		}
		if e > l.maxErr {
			l.maxErr = e
		}
		if e > reconcileTolerance && firstErr == nil {
			firstErr = fmt.Errorf("query seq %d: layers sum to %v, traced wall time is %v (engine spans overlap or escape their parent)", r.seq, sum, w)
		}
		l.wallMs += ms(w)
	}
	return l, firstErr
}

// report adds the per-layer metrics: span-derived ones per traced
// query, counter-derived ones per query of the n that did the counted
// work.
func (l *layers) report(rep *report, work counters, n int) {
	tq := float64(l.n)
	for _, name := range wallLayers {
		rep.add(name, "ms", ratio(l.totalMs[name], tq), l.n)
	}
	rep.add("engine.traced_wall_ms", "ms", ratio(l.wallMs, tq), l.n)
	rep.add("bench.reconcile_err_us", "us", float64(l.maxErr.Nanoseconds())/1e3, l.n)
	rep.add("engine.exec_host_ms", "ms", ratio(l.execMs[0], tq), l.n)
	rep.add("engine.exec_gpu_ms", "ms", ratio(l.execMs[1], tq), l.n)
	rep.add("engine.exec_gather_ms", "ms", ratio(l.execMs[2], tq), l.n)
	// Serving phases as exact quantiles over served queries (none on the
	// batch workloads, where they read 0).
	for _, p := range []struct {
		name, phase string
		q           float64
	}{
		{"serve.queue_wait_ms_p50", "serve.queue_wait_ms", 0.50},
		{"serve.queue_wait_ms_p99", "serve.queue_wait_ms", 0.99},
		{"serve.exec_ms_p50", "serve.exec_ms", 0.50},
		{"serve.serialize_ms_p50", "serve.serialize_ms", 0.50},
		{"serve.overhead_ms_p50", "serve.overhead_ms", 0.50},
	} {
		s := l.perQuery[p.phase]
		rep.add(p.name, "ms", quantile(s, p.q), len(s))
	}
	rep.add("evaluator.chain_ms", "ms", ratio(l.evalChainMs, tq), l.n)
	rep.add("bsort.jobs", "count", ratio(float64(l.sortJobs), tq), l.n)
	rep.add("sqlparse.parse_us_p50", "us", quantile(l.parseUs, 0.5), len(l.parseUs))
	rep.add("plan.build_us_p50", "us", quantile(l.buildUs, 0.5), len(l.buildUs))
	q := float64(n)
	rep.add("evaluator.rows", "rows", ratio(float64(work.evalRows), q), n)
	rep.add("groupby.kernel_execs", "count", ratio(float64(work.groupbyKernels), q), n)
	rep.add("groupby.cpu_fallbacks", "count", ratio(float64(work.gbFallbacks), q), n)
	rep.add("groupby.retries", "count", ratio(float64(work.gbRetries), q), n)
	rep.add("kmv.mean_rel_err", "fraction", ratio(work.kmvSum, float64(work.kmvCount)), int(work.kmvCount))
	rep.add("optimizer.decisions", "count", ratio(float64(work.decisions), q), n)
	rep.add("optimizer.gpu_frac", "fraction", ratio(float64(work.gpuDecisions), float64(work.decisions)), int(work.decisions))
	rep.add("optimizer.mem_gated", "count", ratio(float64(work.memGated), q), n)
	rep.add("gpu.h2d_bytes", "B", ratio(float64(work.h2dBytes), q), n)
	rep.add("gpu.d2h_bytes", "B", ratio(float64(work.d2hBytes), q), n)
	rep.add("gpu.busy_modeled_ms", "ms", ratio(work.deviceBusy.Milliseconds(), q), n)
	rep.add("sched.placements", "count", ratio(float64(work.placeOK), q), n)
	rep.add("sched.place_fails", "count", ratio(float64(work.placeFail), q), n)
	rep.add("sched.reserve_fails", "count", ratio(float64(work.reserveFails), q), n)
	lookups := work.fusion.Hits + work.fusion.Misses
	rep.add("fusion.lookups", "count", ratio(float64(lookups), q), n)
	rep.add("fusion.hit_ratio", "fraction", ratio(float64(work.fusion.Hits), float64(lookups)), int(lookups))
	rep.add("fusion.evictions", "count", ratio(float64(work.fusion.Evictions), q), n)
	rep.add("fusion.upload_bytes", "B", ratio(float64(work.fusion.UploadedBytes), q), n)
	rep.add("fusion.saved_bytes", "B", ratio(float64(work.fusion.SavedBytes), q), n)
	rep.add("fusion.chains", "count", ratio(float64(work.fusedChains), q), n)
	rep.add("go.alloc_bytes_per_query", "B", ratio(work.allocBytes, q), n)
	rep.add("go.gc_cpu_frac", "fraction", ratio(work.gcCPU, work.totalCPU), n)
}

// benchSpan is a span the benchmark records around its own calls into
// the system: the query call (QueryNamedCtx or Do), Serialize and
// metrics.Collect. Engine spans nest under the query call's span
// through their query sequence number.
type benchSpan struct {
	Name       string
	Query      uint64 // engine query sequence, 0 for scrapes
	Start, End time.Time
}

// benchSpans derives the query-call and serialize spans of the traced
// queries.
func benchSpans(recs []qrec, call string) []benchSpan {
	var out []benchSpan
	for _, r := range recs {
		out = append(out, benchSpan{Name: call, Query: r.seq, Start: r.start, End: r.end})
		if r.served {
			out = append(out, benchSpan{Name: "Serialize", Query: r.seq, Start: r.serStart, End: r.serEnd})
		}
	}
	return out
}

// spanOut is one span of the written trace. Times are microseconds of
// wall clock from the first span; engine spans also carry their
// modeled (virtual-time) bounds. Device kernel and transfer spans have
// only modeled bounds.
type spanOut struct {
	ID          uint64   `json:"id,omitempty"`
	Parent      uint64   `json:"parent,omitempty"`
	Query       uint64   `json:"query,omitempty"`
	Source      string   `json:"source"`
	Cat         string   `json:"cat,omitempty"`
	Name        string   `json:"name"`
	StartUs     *float64 `json:"start_us,omitempty"`
	EndUs       *float64 `json:"end_us,omitempty"`
	ModeledFrom float64  `json:"modeled_start_ms,omitempty"`
	ModeledTo   float64  `json:"modeled_end_ms,omitempty"`
}

// writeSpans writes every span the traced run kept in memory to
// <out>/spans-<workload>-seed<seed>.json, once, after measuring.
func writeSpans(o options, spans []trace.Span, own []benchSpan) error {
	var origin time.Time
	for _, s := range own {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	us := func(t time.Time) *float64 {
		if t.IsZero() {
			return nil
		}
		v := float64(t.Sub(origin).Nanoseconds()) / 1e3
		return &v
	}
	out := make([]spanOut, 0, len(spans)+len(own))
	for _, s := range own {
		out = append(out, spanOut{Query: s.Query, Source: "bench", Name: s.Name, StartUs: us(s.Start), EndUs: us(s.End)})
	}
	for _, s := range spans {
		out = append(out, spanOut{
			ID: uint64(s.ID), Parent: uint64(s.Parent), Query: s.Query, Source: "engine",
			Cat: s.Cat, Name: s.Name, StartUs: us(s.WallStart), EndUs: us(s.WallEnd),
			ModeledFrom: float64(s.Start) * 1e3, ModeledTo: float64(s.End) * 1e3,
		})
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	return os.WriteFile(path, data, 0o644)
}
