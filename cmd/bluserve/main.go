// Command bluserve runs the hybrid engine as a long-lived process with
// the serving and admin HTTP surfaces mounted on one listener:
//
//	POST /query       SQL in, JSON results out (admission-controlled;
//	                  "explain":true inlines the EXPLAIN ANALYZE report)
//	GET  /sessions    live session list
//	POST /drain       stop admitting, finish in-flight work
//	GET  /debug/serve admission counters (reconciliation snapshot)
//	GET  /debug/trace/{request-id}  one query's retained wall+vtime trace
//	GET  /debug/trace/slow          the top-K slowest retained traces
//	GET  /debug/prof/hotspots       top-N CPU hotspot digest over the
//	                                bounded profile-capture ring
//	GET  /debug/prof/capture        on-demand bounded CPU capture
//	/metrics          Prometheus text exposition (deterministic ordering),
//	                  including blu_go_* runtime, blu_slo_* burn rates,
//	                  blu_prof_* per-class resource attribution and
//	                  blu_device_* utilization
//	/metrics.json     the same snapshot as structured JSON
//	/healthz          scheduler device health + circuit-breaker state +
//	                  firing alerts (a severity-page alert answers 503)
//	/debug/queries    per-query latency rollups + recent requests
//	/debug/explain    EXPLAIN ANALYZE decision audit for ?q=<sql>
//	/debug/alerts     alert rule states + recent transitions (JSON)
//	/debug/dash       self-contained HTML dashboard over the embedded
//	                  time-series history (inline SVG sparklines)
//	/api/v1/query_range  Prometheus-compatible range queries over the
//	                     embedded history (also /api/v1/query)
//	/debug/pprof/     live profiling (only with -pprof)
//
// Usage:
//
//	bluserve [-addr 127.0.0.1:9090] [-sf 0.02] [-seed N] [-devices 2]
//	         [-degree 24] [-warmup 1] [-faults 0] [-queue 64]
//	         [-drain-ms 5000] [-slow-ms 250] [-qlog FILE]
//	         [-qlog-max-bytes 0] [-qlog-keep 3] [-obs-step 5s]
//	         [-obs-retention 15m] [-rules FILE] [-pprof] [-loop]
//
// On start it generates the dataset, runs -warmup passes over the BD
// Insights suite so the first scrape already has data, then serves.
// SIGTERM/SIGINT drain gracefully: in-flight queries finish (up to
// -drain-ms), queued queries are refused, nothing new is admitted.
// -loop keeps replaying the suite in the background so gauges move.
// An embedded obsd store self-scrapes the registry every -obs-step into
// bounded ring history and evaluates alert rules (-rules FILE, or the
// built-in defaults derived from the SLO and breaker semantics); a
// firing severity-page alert flips /healthz to 503 and halves admission
// capacity. -qlog-max-bytes caps the query log file with keep-N
// rotation (FILE -> FILE.1 -> ... -> FILE.<keep>).
//
// The whole stack is built by assemble; main_test.go drives that same
// function end to end over httptest (`go test ./cmd/bluserve`).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blugpu/internal/bench"
	"blugpu/internal/fault"
	"blugpu/internal/metrics"
	"blugpu/internal/obsd"
	"blugpu/internal/prof"
	"blugpu/internal/qlog"
	"blugpu/internal/serve"
	"blugpu/internal/trace"
	"blugpu/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address (host:port; port 0 picks a free port)")
	sf := flag.Float64("sf", 0.02, "dataset scale factor")
	seed := flag.Uint64("seed", 20160626, "generator seed")
	devices := flag.Int("devices", 2, "number of simulated GPUs")
	degree := flag.Int("degree", 24, "intra-query parallelism")
	warmup := flag.Int("warmup", 1, "passes over the BD Insights suite before serving")
	faults := flag.Float64("faults", 0, "uniform GPU fault-injection rate per site (0 disables)")
	queue := flag.Int("queue", 0, "admission queue capacity (0 = default)")
	drainMs := flag.Int("drain-ms", 5000, "graceful-drain deadline on shutdown, in milliseconds")
	slowMs := flag.Int("slow-ms", 0, "slow-query wall threshold in milliseconds (0 = default 250, negative disables)")
	qlogPath := flag.String("qlog", "", `structured query log destination: a file path, or "stderr"`)
	qlogMaxBytes := flag.Int64("qlog-max-bytes", 0, "rotate the qlog file when it would exceed this size (0 = never)")
	qlogKeep := flag.Int("qlog-keep", 0, "rotated qlog generations to keep (0 = default 3)")
	obsStep := flag.Duration("obs-step", 5*time.Second, "embedded time-series scrape interval")
	obsRetention := flag.Duration("obs-retention", 15*time.Minute, "embedded time-series history retention")
	rulesPath := flag.String("rules", "", "alert rules file (default: built-in rules derived from SLO/breaker semantics)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the admin surface")
	loop := flag.Bool("loop", false, "keep replaying the workload in the background while serving")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bluserve:", err)
		os.Exit(1)
	}

	c := config{
		sf: *sf, seed: *seed, devices: *devices, degree: *degree,
		warmup: *warmup, faults: *faults, queue: *queue,
		drain:   time.Duration(*drainMs) * time.Millisecond,
		slow:    time.Duration(*slowMs) * time.Millisecond,
		obsStep: *obsStep, obsRetention: *obsRetention, pprof: *pprofFlag,
	}
	if *rulesPath != "" {
		data, err := os.ReadFile(*rulesPath)
		if err != nil {
			fail(err)
		}
		if c.rules, err = obsd.ParseRules(data); err != nil {
			fail(err)
		}
	}
	switch *qlogPath {
	case "":
	case "stderr", "-":
		c.log = os.Stderr
	default:
		// With a byte cap the destination is a rotating file
		// (FILE -> FILE.1 -> ...); without one, a plain append.
		var w io.WriteCloser
		var err error
		if *qlogMaxBytes > 0 {
			w, err = qlog.OpenFile(*qlogPath, qlog.Config{MaxBytes: *qlogMaxBytes, Keep: *qlogKeep})
		} else {
			w, err = os.OpenFile(*qlogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		}
		if err != nil {
			fail(err)
		}
		defer w.Close()
		c.log = w
	}

	fmt.Printf("bluserve: generating dataset (sf=%g, seed=%d) and warming up (%d passes)...\n", *sf, *seed, *warmup)
	st, err := assemble(c)
	if err != nil {
		fail(err)
	}
	defer st.close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	srv := &http.Server{Handler: st.handler}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("bluserve: serving %s/query %s/metrics %s/healthz\n", base, base, base)

	if *loop {
		go func() {
			for {
				if _, err := st.h.RunSet(workload.BDInsights()); err != nil {
					fmt.Fprintln(os.Stderr, "bluserve: workload loop:", err)
					return
				}
				time.Sleep(time.Second)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nbluserve: draining")
	rep := st.server.Drain(c.drain)
	fmt.Printf("bluserve: drained (flushed=%d forced=%d waited=%s)\n",
		rep.Flushed, rep.ForcedCancels, rep.Waited.Round(time.Millisecond))
}

// config is everything bluserve's flags decide. log and clock are the
// test seams: the query-log destination (nil disables the log) and the
// clock shared by the query log and the obsd store (nil is the wall
// clock).
type config struct {
	sf           float64
	seed         uint64
	devices      int
	degree       int
	warmup       int
	faults       float64
	queue        int
	drain        time.Duration
	slow         time.Duration
	obsStep      time.Duration
	obsRetention time.Duration
	rules        []obsd.Rule // nil: obsd.DefaultRules(obsStep)
	pprof        bool

	log   io.Writer
	clock func() time.Time
}

// stack is the assembled serving process: the engine harness, the
// admission-controlled server and the observability layers feeding
// one HTTP handler.
type stack struct {
	h       *bench.Harness
	server  *serve.Server
	acct    *prof.Accountant
	captor  *prof.Captor
	obs     *obsd.Store
	handler http.Handler
}

// assemble builds bluserve's serving stack: harness (dataset + warmup)
// → prof accountant and captor → serve.Server → metrics sources → obsd
// store and alert rules → admin mux → handler. The captor's periodic
// windows start here; the obsd store takes one synchronous scrape and
// then self-scrapes on a wall ticker, unless c.clock is injected, in
// which case the caller drives Scrape so every sample lands at a time
// it controls.
func assemble(c config) (*stack, error) {
	cfg := bench.Config{SF: c.sf, Seed: c.seed, Devices: c.devices, Degree: c.degree, Trace: trace.New()}
	if c.faults > 0 {
		cfg.Faults = fault.New(fault.Config{
			Seed: c.seed, Reserve: c.faults, H2D: c.faults, D2H: c.faults, Kernel: c.faults,
		})
	}
	h, err := bench.NewHarness(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.warmup; i++ {
		if _, err := h.RunSet(workload.BDInsights()); err != nil {
			return nil, err
		}
	}

	st := &stack{h: h, acct: prof.NewAccountant()}
	var qlogger *qlog.Logger
	if c.log != nil {
		qlogger = qlog.New(c.log, qlog.WithClock(c.clock))
	}
	// serve and /healthz key off the obsd store through late-bound
	// hooks: the store's Sources closure needs the server first.
	st.server, err = serve.New(h.Eng, serve.Config{
		QueueCapacity: c.queue,
		DrainDeadline: c.drain,
		SlowQuery:     c.slow,
		Log:           qlogger,
		Prof:          st.acct,
		PagesFiring: func() int {
			if st.obs == nil {
				return 0
			}
			return st.obs.PagesFiring()
		},
	})
	if err != nil {
		return nil, err
	}

	// Always-on resource attribution: every admitted query's phases are
	// billed per class into the accountant, and the captor keeps a
	// bounded ring of periodic CPU-profile windows for /debug/prof/*.
	st.captor = prof.NewCaptor(st.acct, prof.Options{})

	// Every scrape carries the admission counters, a live Go runtime
	// sample and the obsd/alert self-accounting alongside the engine.
	engineSources := metrics.SourcesFromEngine(h.Eng)
	sources := func() metrics.Sources {
		src := engineSources()
		src.Admission = st.server.AdmissionSnapshot
		src.Runtime = metrics.SampleRuntime
		src.Prof = st.acct
		src.Captor = st.captor
		if st.obs != nil {
			src.Obs = st.obs.ObsSnapshot
		}
		return src
	}

	// Embedded observability: self-scrape the registry into ring history
	// and evaluate alert rules on every scrape. Transitions land in the
	// qlog, blu_alerts_*, /debug/alerts and the dash; a firing page flips
	// /healthz and halves admission (the hooks wired above).
	obs := obsd.New(obsd.Options{
		Step:      c.obsStep,
		Retention: c.obsRetention,
		Clock:     c.clock,
		Sources:   sources,
		Log:       qlogger,
		Prof:      st.acct,
	})
	rules := c.rules
	if rules == nil {
		rules = obsd.DefaultRules(c.obsStep)
	}
	if err := obs.SetRules(rules); err != nil {
		return nil, err
	}
	st.obs = obs

	admin := metrics.AdminMux(sources)
	obs.Mount(admin)
	if c.pprof {
		metrics.MountPprof(admin)
	}
	st.handler = serve.NewMux(st.server, admin)

	st.captor.Start()
	obs.Scrape() // synchronous first sample so the surfaces answer immediately
	if c.clock == nil {
		obs.Start()
	}
	return st, nil
}

// close stops the background scraper and profile captor.
func (s *stack) close() {
	s.obs.Stop()
	s.captor.Stop()
}
