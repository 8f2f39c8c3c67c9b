package main

// End-to-end tests of the serving stack bluserve ships. Every subtest
// builds the stack with assemble — the function main calls — serves it
// through httptest and drives it over HTTP: the admin and metrics
// surfaces, the admission lifecycle, the request-ID join, the resource
// ledger and the breaker-alert lifecycle. When a subtest fails it logs
// the evidence (scrapes, query log, alert JSON) it gathered.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blugpu/internal/explain"
	"blugpu/internal/metrics"
	"blugpu/internal/qlog"
	"blugpu/internal/sched"
	"blugpu/internal/serve"
	"blugpu/internal/trace"
	"blugpu/internal/workload"
)

func TestServingStack(t *testing.T) {
	t.Run("metrics", testMetricsAndHealth)
	t.Run("serve", testServeLifecycle)
	t.Run("qlog", testRequestIDJoin)
	t.Run("prof", testProfLedger)
	t.Run("dash", testBreakerAlert)
}

// groupBySQL is a plain group-by over the fact table, small enough for
// every scale the subtests use.
const groupBySQL = "SELECT ss_store_sk, SUM(ss_net_paid) AS total FROM store_sales GROUP BY ss_store_sk"

// flagDefaults is the config bluserve's flag defaults produce.
func flagDefaults() config {
	return config{
		sf: 0.02, seed: 20160626, devices: 2, degree: 24, warmup: 1,
		drain: 5 * time.Second, obsStep: 5 * time.Second, obsRetention: 15 * time.Minute,
	}
}

// smallConfig is a cold stack on a tiny dataset, for the checks that
// need traffic through the serving path but not GPU-routed work.
func smallConfig() config {
	c := flagDefaults()
	c.sf, c.degree, c.warmup = 0.002, 8, 0
	return c
}

// start assembles the stack and serves it; both are torn down when the
// test ends.
func start(t *testing.T, c config) (*stack, string) {
	t.Helper()
	st, err := assemble(c)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(st.handler)
	t.Cleanup(func() {
		srv.Close()
		st.close()
	})
	return st, srv.URL
}

// logOnFailure logs every named artifact if the test has failed by the
// time it ends. Register it after start so the server is still up.
func logOnFailure(t *testing.T, artifacts map[string]func() []byte) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		names := make([]string, 0, len(artifacts))
		for name := range artifacts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Logf("evidence %s:\n%s", name, artifacts[name]())
		}
	})
}

// syncBuffer is a query-log destination that is safe to read while the
// server and the obsd store write to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// fetch GETs url; errors come back as status -1 with the error text as
// the body, so it is usable from cleanups and evidence closures.
func fetch(url string) ([]byte, int) {
	resp, err := http.Get(url)
	if err != nil {
		return []byte(err.Error()), -1
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return body, resp.StatusCode
}

// fetcher adapts fetch to an evidence closure.
func fetcher(url string) func() []byte {
	return func() []byte { body, _ := fetch(url); return body }
}

// post sends payload as JSON (nil sends an empty body), with an
// X-Request-ID header when id is set. Safe to call from any goroutine.
func post(url string, payload any, id string) (int, []byte, http.Header, error) {
	var body []byte
	if payload != nil {
		body, _ = json.Marshal(payload)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// mustPostOK posts one query and fails the test unless it answers 200.
func mustPostOK(t *testing.T, url string, payload any, id string) []byte {
	t.Helper()
	code, body, _, err := post(url, payload, id)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("POST %s %v: HTTP %d: %.200s", url, payload, code, body)
	}
	return body
}

// tripBreakers opens every device circuit breaker.
func tripBreakers(sch *sched.Scheduler) {
	for _, dev := range sch.Devices() {
		for i := 0; i < sched.DefaultFailThreshold; i++ {
			sch.ReportFailure(dev)
		}
	}
}

// recoverBreakers advances the virtual clock past probation and reports
// one successful probe per device, which closes the breakers.
func recoverBreakers(sch *sched.Scheduler) {
	sch.Advance(10 * 60) // ten virtual minutes, far beyond any probation
	for _, dev := range sch.Devices() {
		sch.ReportSuccess(dev)
	}
}

// testMetricsAndHealth scrapes every admin surface of a warmed-up stack
// at bluserve's default scale (the smallest at which the optimizer
// routes work to the GPU, so the kernel/transfer/scheduler families are
// populated) and walks /healthz through 200 → 503 (every breaker open)
// → 200 (recovered).
func testMetricsAndHealth(t *testing.T) {
	st, base := start(t, flagDefaults())
	logOnFailure(t, map[string]func() []byte{
		"metrics.txt": fetcher(base + "/metrics"),
		"healthz":     fetcher(base + "/healthz"),
	})

	// One query through the serving path: the blu_prof_* wall ledger
	// only carries series for classes that ran, and the warmup passes go
	// straight to the engine, not through admission.
	mustPostOK(t, base+"/query", map[string]any{"sql": groupBySQL, "session": "smoke"}, "")

	body, code := fetch(base + "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	if err := metrics.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics: invalid exposition: %v", err)
	}
	for _, family := range []string{
		"blu_kernel_executions_total",
		"blu_transfer_bytes_total",
		"blu_sched_placements_total",
		"blu_device_memory_total_bytes",
		"blu_query_latency_seconds_bucket",
		"blu_optimizer_decisions_total",
		"blu_kmv_relative_error_count",
		"blu_serve_queue_depth",
		"blu_serve_submitted_total",
		"blu_go_goroutines",
		"blu_go_gc_cycles_total",
		"blu_prof_wall_seconds_total",
		"blu_prof_captures_total",
		"blu_device_busy_ratio",
		"blu_device_reserved_bytes",
		"blu_obsd_scrapes_total",
		"blu_alerts_rules",
	} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("/metrics: family %s missing from scrape", family)
		}
	}

	// The hotspot digest always answers over the ring; an on-demand
	// capture may find the process CPU profiler busy (409).
	if body, code := fetch(base + "/debug/prof/hotspots"); code != http.StatusOK || !bytes.Contains(body, []byte("prof hotspots:")) {
		t.Errorf("/debug/prof/hotspots: HTTP %d: %.120s", code, body)
	}
	if body, code := fetch(base + "/debug/prof/capture?window=50ms"); code != http.StatusOK && code != http.StatusConflict {
		t.Errorf("/debug/prof/capture: HTTP %d: %.120s", code, body)
	}

	body, code = fetch(base + "/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"status"`)) {
		t.Fatalf("/healthz: HTTP %d: %s", code, body)
	}
	// All devices quarantined turns /healthz into a 503 — the same
	// signal the admission shedder keys off.
	sch := st.h.Eng.Scheduler()
	tripBreakers(sch)
	body, code = fetch(base + "/healthz")
	if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(metrics.HealthUnhealthy)) {
		t.Fatalf("/healthz with all breakers open: HTTP %d %s, want 503 %s", code, body, metrics.HealthUnhealthy)
	}
	recoverBreakers(sch)
	if body, code = fetch(base + "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after recovery: HTTP %d %s, want 200", code, body)
	}

	if body, code := fetch(base + "/debug/queries"); code != http.StatusOK || !bytes.Contains(body, []byte("queries:")) {
		t.Errorf("/debug/queries: HTTP %d: %.120s", code, body)
	}
	if body, code := fetch(base + "/debug/alerts"); code != http.StatusOK || !bytes.Contains(body, []byte(`"rules"`)) {
		t.Errorf("/debug/alerts: HTTP %d: %.120s", code, body)
	}
	if body, code := fetch(base + "/debug/dash"); code != http.StatusOK || !bytes.Contains(body, []byte("<svg")) {
		t.Errorf("/debug/dash: HTTP %d: %.120s", code, body)
	}
	now := time.Now().Unix()
	rangeURL := fmt.Sprintf("%s/api/v1/query_range?query=blu_serve_queue_depth&start=%d&end=%d&step=5", base, now-600, now)
	if body, code := fetch(rangeURL); code != http.StatusOK || !bytes.Contains(body, []byte(`"status":"success"`)) {
		t.Errorf("/api/v1/query_range: HTTP %d: %.200s", code, body)
	}

	body, code = fetch(base + "/debug/explain?q=" + url.QueryEscape(groupBySQL))
	if code != http.StatusOK {
		t.Fatalf("/debug/explain: HTTP %d: %.200s", code, body)
	}
	if err := explain.ValidateReport(body); err != nil {
		t.Fatalf("/debug/explain: %v", err)
	}
	rep, err := explain.Decode(body)
	if err != nil {
		t.Fatalf("/debug/explain: %v", err)
	}
	if !rep.Reconciled() {
		t.Fatalf("/debug/explain: report not reconciled: unattributed=%d orphans=%d mismatches=%v",
			rep.Unattributed, rep.Orphans, rep.Totals.Mismatches)
	}
}

// testServeLifecycle drives a multi-user BD Insights mix through POST
// /query against a deliberately small admission queue (retrying shed
// 429s), one inline EXPLAIN ANALYZE, a graceful drain and the post-drain
// 503, then reconciles the admission ledger served at /debug/serve
// against the client's count and the in-process snapshot.
func testServeLifecycle(t *testing.T) {
	c := flagDefaults()
	c.queue = 4
	st, base := start(t, c)
	logOnFailure(t, map[string]func() []byte{"debug_serve.json": fetcher(base + "/debug/serve")})

	mix := workload.UserMix{Simple: 14, Intermediate: 4, Complex: 2, QueriesPerUser: 2}
	var submitted, admitted, shedRetries atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, mix.Users())
	for u, stream := range workload.BDInsightsStreams(mix) {
		wg.Add(1)
		go func(session string, stream []workload.Query) {
			defer wg.Done()
			for _, q := range stream {
				for attempt := 0; ; attempt++ {
					if attempt > 500 {
						errs <- fmt.Errorf("%s: %s never admitted", session, q.ID)
						return
					}
					submitted.Add(1)
					code, body, _, err := post(base+"/query", map[string]any{
						"sql": q.SQL, "session": session, "class": string(q.Class), "name": q.ID,
					}, "")
					if err != nil {
						errs <- err
						return
					}
					if code == http.StatusTooManyRequests {
						shedRetries.Add(1)
						time.Sleep(2 * time.Millisecond)
						continue
					}
					if code != http.StatusOK {
						errs <- fmt.Errorf("%s: %s: HTTP %d: %.200s", session, q.ID, code, body)
						return
					}
					var resp struct {
						Class string `json:"class"`
					}
					if err := json.Unmarshal(body, &resp); err != nil {
						errs <- fmt.Errorf("%s: bad /query body: %w", session, err)
						return
					}
					if resp.Class != string(q.Class) {
						errs <- fmt.Errorf("%s: class %q echoed as %q", session, q.Class, resp.Class)
						return
					}
					admitted.Add(1)
					break
				}
			}
		}(fmt.Sprintf("smoke-user-%d", u), stream)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("served %d queries over %d users (%d submissions, %d shed retries)",
		admitted.Load(), mix.Users(), submitted.Load(), shedRetries.Load())

	submitted.Add(1)
	body := mustPostOK(t, base+"/query", map[string]any{"sql": groupBySQL, "explain": true}, "")
	var withExplain struct {
		Explain json.RawMessage `json:"explain"`
	}
	if err := json.Unmarshal(body, &withExplain); err != nil || len(withExplain.Explain) == 0 {
		t.Fatalf("inline explain missing: err=%v body=%.200s", err, body)
	}

	body = mustPostOK(t, base+"/drain?deadline_ms=5000", nil, "")
	var rep serve.DrainReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/drain body: %v", err)
	}
	if rep.ForcedCancels != 0 {
		t.Fatalf("drain force-canceled %d queries with no load in flight", rep.ForcedCancels)
	}
	submitted.Add(1)
	code, body, _, err := post(base+"/query", map[string]any{"sql": "SELECT 1 FROM store_sales LIMIT 1"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain /query: HTTP %d %.200s, want 503", code, body)
	}

	// The server's ledger must match the client's count, and the four
	// outcomes must partition it exactly.
	body, _ = fetch(base + "/debug/serve")
	var ledger struct {
		Submitted uint64 `json:"submitted"`
		Admitted  uint64 `json:"admitted"`
		Shed      uint64 `json:"shed"`
		TimedOut  uint64 `json:"timed_out"`
		Drained   uint64 `json:"drained"`
	}
	if err := json.Unmarshal(body, &ledger); err != nil {
		t.Fatalf("/debug/serve body: %v", err)
	}
	if ledger.Submitted != submitted.Load() {
		t.Fatalf("server saw %d submissions, client sent %d", ledger.Submitted, submitted.Load())
	}
	if got := ledger.Admitted + ledger.Shed + ledger.TimedOut + ledger.Drained; got != ledger.Submitted {
		t.Fatalf("outcomes do not partition submissions: %+v", ledger)
	}
	if snap := st.server.AdmissionSnapshot(); snap.Admitted != ledger.Admitted || snap.Submitted != ledger.Submitted {
		t.Fatalf("/debug/serve disagrees with the in-process snapshot: %+v vs %+v", ledger, snap)
	}
}

// testRequestIDJoin posts identified BD Insights queries (every other
// one with EXPLAIN ANALYZE) and proves each ID joins the response, the
// query log, the EXPLAIN report and the live trace ring, that the log's
// phase breakdown accounts for each query's wall clock, and that the
// runtime and SLO metric families are served.
func testRequestIDJoin(t *testing.T) {
	c := smallConfig()
	c.slow = time.Microsecond // every query is slow, so slow retention has content
	log := &syncBuffer{}
	c.log = log
	_, base := start(t, c)
	logOnFailure(t, map[string]func() []byte{
		"metrics.txt":     fetcher(base + "/metrics"),
		"trace_slow.json": fetcher(base + "/debug/trace/slow"),
		"qlog.jsonl":      log.Bytes,
	})

	suite := workload.BDInsights()
	var ids []string
	for i := 0; i < 8; i++ {
		q := suite[i%len(suite)]
		id := fmt.Sprintf("qlogcheck-%03d", i+1)
		withExplain := i%2 == 0
		code, body, hdr, err := post(base+"/query", map[string]any{
			"sql": q.SQL, "name": q.ID, "session": "qlogcheck", "explain": withExplain,
		}, id)
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK {
			t.Fatalf("%s (%s): HTTP %d: %.200s", id, q.ID, code, body)
		}
		if got := hdr.Get("X-Request-ID"); got != id {
			t.Fatalf("%s: response header echoes %q", id, got)
		}
		var out struct {
			RequestID string `json:"request_id"`
			Explain   *struct {
				RequestID string `json:"request_id"`
			} `json:"explain"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: bad response body: %v", id, err)
		}
		if out.RequestID != id {
			t.Fatalf("%s: body carries request_id %q", id, out.RequestID)
		}
		if withExplain && (out.Explain == nil || out.Explain.RequestID != id) {
			t.Fatalf("%s: EXPLAIN report does not carry the ID: %.200s", id, body)
		}
		ids = append(ids, id)
	}

	logBytes := log.Bytes()
	if err := qlog.Validate(logBytes); err != nil {
		t.Fatalf("query log invalid: %v", err)
	}
	recs, err := qlog.Decode(logBytes)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]int{}
	slowEvents := 0
	for _, rec := range recs {
		switch rec.Event {
		case qlog.EventSlow:
			slowEvents++
			continue
		case qlog.EventQuery:
		default:
			continue // alert events from the obsd store
		}
		byID[rec.RequestID]++
		if rec.Outcome != qlog.OutcomeOK {
			t.Fatalf("%s: outcome %s (%s)", rec.RequestID, rec.Outcome, rec.Error)
		}
		sum := rec.Phases.SumMs()
		if diff := math.Abs(rec.TotalMs - sum); diff > math.Max(0.05*rec.TotalMs, 0.25) {
			t.Fatalf("%s: phases sum %.3fms vs total %.3fms (over 5%%): %+v",
				rec.RequestID, sum, rec.TotalMs, rec.Phases)
		}
		if rec.Phases.SerializeMs <= 0 || rec.ResultBytes == 0 {
			t.Fatalf("%s: serialize phase unmeasured (%+v)", rec.RequestID, rec.Phases)
		}
	}
	for _, id := range ids {
		if byID[id] != 1 {
			t.Fatalf("%s: %d query-log records, want exactly 1", id, byID[id])
		}
	}
	if slowEvents == 0 {
		t.Fatal("no slow_query events despite a 1µs threshold")
	}

	// Every posted ID resolves to valid Chrome JSON carrying that ID
	// (the ring is larger than the posted count); unknown IDs 404.
	for _, id := range ids {
		body, code := fetch(base + "/debug/trace/" + id)
		if code != http.StatusOK {
			t.Fatalf("/debug/trace/%s: HTTP %d: %.120s", id, code, body)
		}
		if err := trace.ValidateChrome(body); err != nil {
			t.Fatalf("/debug/trace/%s: %v", id, err)
		}
		if !bytes.Contains(body, []byte(`"request_id":"`+id+`"`)) {
			t.Fatalf("/debug/trace/%s: export does not carry the ID", id)
		}
	}
	if body, code := fetch(base + "/debug/trace/qlogcheck-never-sent"); code != http.StatusNotFound {
		t.Fatalf("unknown trace ID: HTTP %d, want 404: %.120s", code, body)
	}
	body, code := fetch(base + "/debug/trace/slow")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace/slow: HTTP %d", code)
	}
	if err := trace.ValidateChrome(body); err != nil {
		t.Fatalf("/debug/trace/slow: %v", err)
	}

	body, code = fetch(base + "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	if err := metrics.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	for _, family := range []string{
		"blu_go_goroutines",
		"blu_go_heap_objects_bytes",
		"blu_go_gc_cycles_total",
		"blu_slo_threshold_seconds",
		"blu_slo_burn_rate",
		"blu_serve_wall_seconds_bucket",
		"blu_serve_slow_queries_total",
	} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("/metrics: family %s missing", family)
		}
	}
}

// testProfLedger posts identified queries across the BD Insights mix
// and reconciles the blu_prof_wall_seconds_total ledger scraped from
// /metrics against the query log, per class and phase, then exercises
// the on-demand capture and the hotspot digest.
func testProfLedger(t *testing.T) {
	c := smallConfig()
	c.slow = -1
	log := &syncBuffer{}
	c.log = log
	_, base := start(t, c)
	logOnFailure(t, map[string]func() []byte{
		"metrics.txt":  fetcher(base + "/metrics"),
		"hotspots.txt": fetcher(base + "/debug/prof/hotspots"),
		"qlog.jsonl":   log.Bytes,
	})

	suite := workload.BDInsights()
	posted := map[string]bool{}
	for i := 0; i < 9; i++ {
		q := suite[i%len(suite)]
		id := fmt.Sprintf("profcheck-%03d", i+1)
		mustPostOK(t, base+"/query", map[string]any{"sql": q.SQL, "name": q.ID, "session": "profcheck"}, id)
		posted[id] = true
	}

	// Ledger A: the query log's per-(class, phase) wall sums over the
	// posted IDs.
	logBytes := log.Bytes()
	if err := qlog.Validate(logBytes); err != nil {
		t.Fatalf("query log invalid: %v", err)
	}
	recs, err := qlog.Decode(logBytes)
	if err != nil {
		t.Fatal(err)
	}
	logMs := map[[2]string]float64{}
	logCount := map[string]int{}
	total := 0
	for _, rec := range recs {
		if rec.Event != qlog.EventQuery || !posted[rec.RequestID] {
			continue
		}
		if rec.Outcome != qlog.OutcomeOK {
			t.Fatalf("%s: outcome %s (%s)", rec.RequestID, rec.Outcome, rec.Error)
		}
		logCount[rec.Class]++
		total++
		ph := rec.Phases
		for phase, ms := range map[string]float64{
			"queue_wait": ph.QueueWaitMs, "admission": ph.AdmissionMs, "parse": ph.ParseMs,
			"plan": ph.PlanMs, "exec": ph.ExecMs, "serialize": ph.SerializeMs,
		} {
			logMs[[2]string{rec.Class, phase}] += ms
		}
	}
	if total != len(posted) {
		t.Fatalf("query log has %d ok records for posted IDs, want %d", total, len(posted))
	}

	// Ledger B: the scraped blu_prof_* families.
	scrape, code := fetch(base + "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	if err := metrics.ValidateExposition(scrape); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	for _, family := range []string{
		"blu_prof_wall_seconds_total",
		"blu_prof_cpu_seconds_total",
		"blu_prof_alloc_bytes_total",
		"blu_prof_phases_total",
		"blu_prof_captures_total",
		"blu_device_busy_ratio",
		"blu_device_busy_seconds_total",
		"blu_device_reserved_bytes",
	} {
		if !bytes.Contains(scrape, []byte(family)) {
			t.Fatalf("/metrics: family %s missing", family)
		}
	}
	profWall := scrapeClassPhase(t, scrape, "blu_prof_wall_seconds_total")
	profCPU := scrapeClassPhase(t, scrape, "blu_prof_cpu_seconds_total")
	for class, n := range logCount {
		// The accountant and the log were fed the same measured
		// durations; the only slack is qlog's microsecond rounding —
		// 0.5µs per record per phase.
		tol := 0.0005 * float64(n)
		for _, phase := range []string{"queue_wait", "admission", "parse", "plan", "exec", "serialize"} {
			k := [2]string{class, phase}
			got, ok := profWall[k]
			if !ok {
				t.Fatalf("blu_prof_wall_seconds_total missing cell class=%s phase=%s", class, phase)
			}
			if d := math.Abs(got*1000 - logMs[k]); d > tol {
				t.Errorf("%s/%s: prof %.6fms vs qlog %.6fms (|Δ|=%.6f > %.6f)", class, phase, got*1000, logMs[k], d, tol)
			}
			// CPU attribution is statistical (profiler sampling): the
			// account must be non-negative, nothing more.
			if cpu, ok := profCPU[k]; ok && cpu < 0 {
				t.Errorf("%s/%s: negative CPU account %g", class, phase, cpu)
			}
		}
	}

	// The capture surface: an on-demand bounded capture (it waits out a
	// periodic window of the same captor), then the digest over the ring.
	body, code := fetch(base + "/debug/prof/capture?window=100ms")
	if code != http.StatusOK {
		t.Fatalf("/debug/prof/capture: HTTP %d: %.200s", code, body)
	}
	var capture struct {
		Captures uint64 `json:"captures"`
		CPUBytes int    `json:"cpu_bytes"`
	}
	if err := json.Unmarshal(body, &capture); err != nil {
		t.Fatalf("/debug/prof/capture: bad JSON: %v", err)
	}
	if capture.Captures < 1 || capture.CPUBytes == 0 {
		t.Fatalf("/debug/prof/capture: empty capture: %s", body)
	}
	body, code = fetch(base + "/debug/prof/hotspots")
	if code != http.StatusOK || !bytes.HasPrefix(body, []byte("prof hotspots:")) {
		t.Fatalf("/debug/prof/hotspots: HTTP %d: %.120s", code, body)
	}
}

// scrapeClassPhase extracts a {class,phase}-labeled family from the
// exposition text, keyed by [class, phase].
func scrapeClassPhase(t *testing.T, exposition []byte, family string) map[[2]string]float64 {
	t.Helper()
	re := regexp.MustCompile(`^` + family + `\{class="([^"]+)",phase="([^"]+)"\} (\S+)$`)
	out := map[[2]string]float64{}
	for _, line := range strings.Split(string(exposition), "\n") {
		m := re.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("%s: bad value %q: %v", family, m[3], err)
		}
		out[[2]string{m[1], m[2]}] = v
	}
	if len(out) == 0 {
		t.Fatalf("%s: no class/phase series in scrape", family)
	}
	return out
}

// alertStep is the injected obsd scrape interval. The default rules
// derive a 2×step hold-down from it, so AllBreakersOpen must fire
// within two scrapes of going pending.
const alertStep = time.Second

// alertRun is one breaker-alert run's deterministic surfaces.
type alertRun struct {
	alerts       []byte // /debug/alerts JSON
	alertMetrics []byte // the blu_alerts_* lines of /metrics
	qlogAlerts   []byte // the event:alert records of the query log
}

// testBreakerAlert walks the AllBreakersOpen page alert through
// pending → firing → resolved on an injected clock, twice, and requires
// the two runs' alert surfaces to be byte-identical: the injected
// clock, not wall time, stamps every transition.
func testBreakerAlert(t *testing.T) {
	r1 := breakerAlertRun(t)
	r2 := breakerAlertRun(t)
	if !bytes.Equal(r1.alerts, r2.alerts) {
		t.Errorf("/debug/alerts not byte-identical across identical runs:\n%s\nvs\n%s", r1.alerts, r2.alerts)
	}
	if !bytes.Equal(r1.alertMetrics, r2.alertMetrics) {
		t.Errorf("blu_alerts_* exposition not byte-identical across identical runs:\n%s\nvs\n%s", r1.alertMetrics, r2.alertMetrics)
	}
	if !bytes.Equal(r1.qlogAlerts, r2.qlogAlerts) {
		t.Errorf("qlog alert records not byte-identical across identical runs:\n%s\nvs\n%s", r1.qlogAlerts, r2.qlogAlerts)
	}
}

// breakerAlertRun builds one stack on an injected clock, trips and
// recovers every breaker, and checks the lifecycle on /healthz,
// /debug/alerts, blu_alerts_*, the query log and /debug/dash, plus the
// obsd scrape-overhead budget.
func breakerAlertRun(t *testing.T) alertRun {
	t.Helper()
	// The clock only moves when tick says so, so every transition stamp
	// is a pure function of the scrape sequence.
	var clockMu sync.Mutex
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	c := smallConfig()
	c.obsStep, c.obsRetention = alertStep, 2*time.Minute
	c.clock = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	log := &syncBuffer{}
	c.log = log
	st, base := start(t, c)
	logOnFailure(t, map[string]func() []byte{
		"alerts.json": fetcher(base + "/debug/alerts"),
		"dash.html":   fetcher(base + "/debug/dash"),
		"metrics.txt": fetcher(base + "/metrics"),
		"qlog.jsonl":  log.Bytes,
	})
	tick := func() {
		clockMu.Lock()
		now = now.Add(alertStep)
		clockMu.Unlock()
		st.obs.Scrape()
	}
	healthz := func() int { _, code := fetch(base + "/healthz"); return code }

	// Traffic first, so the wall histograms and prof exec cells have
	// content before any scrape retains them.
	suite := workload.BDInsights()
	for i := 0; i < 6; i++ {
		q := suite[i%len(suite)]
		mustPostOK(t, base+"/query", map[string]any{"sql": q.SQL, "name": q.ID, "session": "dashcheck"}, "")
	}

	tick()
	tick()
	if pf := st.obs.PagesFiring(); pf != 0 {
		t.Fatalf("healthy baseline: %d pages firing", pf)
	}
	if code := healthz(); code != http.StatusOK {
		t.Fatalf("healthy /healthz: HTTP %d, want 200", code)
	}

	// The rule goes pending on the first scrape after the fault and must
	// fire within one for: window after that.
	sch := st.h.Eng.Scheduler()
	tripBreakers(sch)
	deadline := int(2*alertStep/alertStep) + 1
	for scrapes := 0; st.obs.PagesFiring() == 0; scrapes++ {
		if scrapes >= deadline {
			t.Fatalf("AllBreakersOpen did not fire within %d scrapes (one for: window)", deadline)
		}
		tick()
	}
	if code := healthz(); code != http.StatusServiceUnavailable {
		t.Fatalf("firing page alert: /healthz HTTP %d, want 503", code)
	}
	recoverBreakers(sch)
	tick()
	if pf := st.obs.PagesFiring(); pf != 0 {
		t.Fatalf("after recovery: %d pages still firing", pf)
	}
	if code := healthz(); code != http.StatusOK {
		t.Fatalf("after recovery: /healthz HTTP %d, want 200", code)
	}

	const lifecycle = "pending,firing,resolved"
	alerts, code := fetch(base + "/debug/alerts")
	if code != http.StatusOK {
		t.Fatalf("/debug/alerts: HTTP %d", code)
	}
	var snap metrics.AlertsSnapshot
	if err := json.Unmarshal(alerts, &snap); err != nil {
		t.Fatalf("/debug/alerts: %v", err)
	}
	var seen []string
	for _, tr := range snap.Transitions {
		if tr.Alert == "AllBreakersOpen" {
			seen = append(seen, tr.To)
		}
	}
	if got := strings.Join(seen, ","); got != lifecycle {
		t.Fatalf("/debug/alerts lifecycle = %s, want %s", got, lifecycle)
	}

	scrape, code := fetch(base + "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	if err := metrics.ValidateExposition(scrape); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	for _, needle := range []string{
		"blu_obsd_scrapes_total",
		`blu_alerts_transitions_total{alert="AllBreakersOpen",to="firing"} 1`,
		`blu_alerts_transitions_total{alert="AllBreakersOpen",to="resolved"} 1`,
	} {
		if !bytes.Contains(scrape, []byte(needle)) {
			t.Fatalf("/metrics: %q missing from scrape", needle)
		}
	}
	var alertLines []string
	for _, line := range strings.Split(string(scrape), "\n") {
		if strings.Contains(line, "blu_alerts") {
			alertLines = append(alertLines, line)
		}
	}

	logBytes := log.Bytes()
	if err := qlog.Validate(logBytes); err != nil {
		t.Fatalf("query log invalid: %v", err)
	}
	recs, err := qlog.Decode(logBytes)
	if err != nil {
		t.Fatal(err)
	}
	seen = nil
	for _, rec := range recs {
		if rec.Event == qlog.EventAlert && rec.Alert == "AllBreakersOpen" {
			seen = append(seen, rec.AlertState)
		}
	}
	if got := strings.Join(seen, ","); got != lifecycle {
		t.Fatalf("qlog lifecycle = %s, want %s", got, lifecycle)
	}
	var qlogAlerts bytes.Buffer
	for _, line := range bytes.Split(logBytes, []byte("\n")) {
		if bytes.Contains(line, []byte(`"event":"alert"`)) {
			qlogAlerts.Write(line)
			qlogAlerts.WriteByte('\n')
		}
	}

	dash, code := fetch(base + "/debug/dash")
	if code != http.StatusOK {
		t.Fatalf("/debug/dash: HTTP %d", code)
	}
	for _, needle := range []string{"AllBreakersOpen", "resolved", "<svg"} {
		if !bytes.Contains(dash, []byte(needle)) {
			t.Fatalf("/debug/dash: %q missing", needle)
		}
	}

	// The store's scrape wall, attributed to the (obsd, scrape) prof
	// cell, must stay under 1% of exec wall, with an absolute floor
	// because this workload executes for well under a second.
	var obsdWall, execWall float64
	for _, ps := range st.acct.Snapshot() {
		switch {
		case ps.Class == "obsd" && ps.Phase == "scrape":
			obsdWall += ps.WallSeconds
		case ps.Phase == "exec":
			execWall += ps.WallSeconds
		}
	}
	if obsdWall <= 0 {
		t.Fatal("no (obsd, scrape) wall attributed — scrape overhead unaccounted")
	}
	if budget := max(0.01*execWall, 0.050); obsdWall > budget {
		t.Fatalf("obsd scrape wall %.1fms exceeds budget %.1fms (exec wall %.1fms)",
			obsdWall*1e3, budget*1e3, execWall*1e3)
	}
	return alertRun{
		alerts:       alerts,
		alertMetrics: []byte(strings.Join(alertLines, "\n")),
		qlogAlerts:   qlogAlerts.Bytes(),
	}
}
