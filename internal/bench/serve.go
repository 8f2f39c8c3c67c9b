package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"blugpu/internal/metrics"
	"blugpu/internal/obsd"
	"blugpu/internal/serve"
	"blugpu/internal/workload"
)

// SustainedResult is one sustained-serving measurement: a multi-user
// mix pushed through the admission-controlled serving layer, with
// clients retrying shed submissions until admitted. All numbers are
// wall-clock on this machine — trend data, never gated.
type SustainedResult struct {
	Users    int
	Wall     time.Duration
	QPS      float64 // admitted queries per wall second
	ShedRate float64 // shed submissions / total submissions
	P50Ms    float64 // client-observed latency incl. queueing + retries
	P95Ms    float64
	P99Ms    float64
	// Phase medians from the server's wall-clock phase breakdown of each
	// admitted query: time queued, time inside the engine call, and time
	// serializing the client payload. Machine-dependent, never gated.
	QueueWaitP50Ms float64
	ExecWallP50Ms  float64
	SerializeP50Ms float64
	PerClass       map[workload.Class][]float64 // per-class client latencies (ms)
	Snapshot       *metrics.AdmissionSnapshot   // final server ledger
	DrainRep       serve.DrainReport
	// Series are the trend series an embedded obsd scraper recorded over
	// the run: queue depth, shed rate, and wall-latency quantiles sampled
	// every trendStep. Benchdiff gates on their slopes (steady state ≈ 0),
	// not on the machine-dependent sample values.
	Series    []SeriesSnap
	perClassO []workload.Class // class print order
}

// trendStep is the embedded scraper's sample interval during sustained
// runs: fine enough to see queue ramps inside a multi-second run, coarse
// enough that scraping stays invisible next to query execution.
const trendStep = 25 * time.Millisecond

// sustainedMinWall is the shortest sustained run: users cycle through
// their streams again until it has passed. Rate and per-class quantile
// series start only at the first scrape after their first sample, so a
// small mix that a fast engine finishes within a tick or two would
// leave them a single point; ten ticks leave every series several.
const sustainedMinWall = 10 * trendStep

// trendMaxPoints bounds the samples kept per series in a snapshot: the
// range query widens its step until the run fits, so BENCH_<n>.json
// stays tidy no matter how long the run was.
const trendMaxPoints = 64

// trendExprs are the headline series extracted from the run's history.
// The rate window and the quantile source are instant-vector reads of
// the admission snapshot's counters/histograms; scale converts seconds
// to the milliseconds the snapshot columns use. Only the steady-state
// series gate (slope ceiling): the run-to-date wall quantiles ramp by
// construction as early samples accumulate, so they stay informational.
var trendExprs = []struct {
	name  string
	expr  string
	scale float64
	gated bool
}{
	{"queue_depth", "blu_serve_queue_depth", 1, true},
	{"shed_per_s", `rate(blu_serve_queries_total{outcome="shed"}[100ms])`, 1, true},
	{"p50_wall_ms", "histogram_quantile(0.5, blu_serve_wall_seconds_bucket)", 1e3, false},
	{"p99_wall_ms", "histogram_quantile(0.99, blu_serve_wall_seconds_bucket)", 1e3, false},
}

// trendName renders a series identity for the snapshot: the headline
// name plus any distinguishing labels (the wall quantiles split by user
// class). Labels the expression's matcher pins are redundant and
// dropped.
func trendName(base string, labels []metrics.Label, pinned map[string]bool) string {
	var parts []string
	for _, l := range labels {
		if pinned[l.Name] {
			continue
		}
		parts = append(parts, l.Name+"="+l.Value)
	}
	if len(parts) == 0 {
		return base
	}
	return base + "{" + strings.Join(parts, ",") + "}"
}

// slopePerSec fits a least-squares line through the points and returns
// its slope in (scaled) units per second — the within-run drift the
// trend gate judges.
func slopePerSec(pts []obsd.RangePoint, scale float64) float64 {
	if len(pts) < 2 {
		return 0
	}
	n := float64(len(pts))
	t0 := pts[0].T
	var st, sv, stt, stv float64
	for _, p := range pts {
		t := p.T - t0
		v := p.V * scale
		st += t
		sv += v
		stt += t * t
		stv += t * v
	}
	den := n*stt - st*st
	if den == 0 {
		return 0
	}
	return (n*stv - st*sv) / den
}

// captureTrend extracts the headline series from the run's history.
// Values are quantized like the modeled columns so snapshots stay tidy;
// the slope is computed over the same downsampled points it ships with.
func captureTrend(obs *obsd.Store, start, end time.Time) []SeriesSnap {
	step := obs.Step()
	if wall := end.Sub(start); wall > time.Duration(trendMaxPoints-1)*step {
		step = wall / (trendMaxPoints - 1)
	}
	// Lay the grid back from end, so its last point sees the post-run
	// scrape; a grid laid forward from start can stop short of it.
	start = end.Add(-end.Sub(start) / step * step)
	var out []SeriesSnap
	for _, te := range trendExprs {
		series, err := obs.QueryRange(te.expr, start, end, step)
		if err != nil {
			continue
		}
		pinned := map[string]bool{}
		if e, err := obsd.ParseExpr(te.expr); err == nil {
			for _, m := range e.Matchers {
				pinned[m.Name] = true
			}
		}
		for _, rs := range series {
			snap := SeriesSnap{Name: trendName(te.name, rs.Labels, pinned), Gated: te.gated}
			for _, p := range rs.Points {
				snap.Samples = append(snap.Samples, roundMs(p.V*te.scale))
			}
			snap.Slope = roundMs(slopePerSec(rs.Points, te.scale))
			out = append(out, snap)
		}
	}
	return out
}

// countWriter counts bytes; the sustained bench serializes real JSON
// through it so the serialize phase measures actual encoding work
// without buffering every payload.
type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// RunSustained drives one stream per user of mix through a serve.Server
// over the harness engine, cycling through the streams until the run
// has lasted sustainedMinWall. Every user retries shed submissions (each
// retry counts as a new submission on the server's ledger) until the
// query is admitted, so the run measures saturated steady-state
// behaviour: queueing delay, shed rate, and delivered throughput.
func (h *Harness) RunSustained(mix workload.UserMix, scfg serve.Config) (*SustainedResult, error) {
	if scfg.Log == nil {
		scfg.Log = h.cfg.QueryLog
	}
	s, err := serve.New(h.Eng, scfg)
	if err != nil {
		return nil, err
	}
	streams := workload.BDInsightsStreams(mix)

	// The embedded scraper samples the server's admission state into
	// ring history over the run; captureTrend turns that history into
	// the snapshot's trend series after drain. One synchronous scrape
	// before and after the run gives a gauge at least two points even
	// when the run is shorter than a tick; rates and quantiles also need
	// the ticks in between.
	obs := obsd.New(obsd.Options{
		Step:      trendStep,
		Retention: 5 * time.Minute,
		Sources: func() metrics.Sources {
			return metrics.Sources{Admission: s.AdmissionSnapshot}
		},
	})
	obs.Scrape()
	obs.Start()

	var mu sync.Mutex
	perClass := map[workload.Class][]float64{}
	var waitMs, execMs, serMs []float64
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for u, stream := range streams {
		wg.Add(1)
		go func(u int, stream []workload.Query) {
			defer wg.Done()
			session := fmt.Sprintf("user-%d", u)
			for i := 0; i < len(stream) || (i > 0 && time.Since(start) < sustainedMinWall); i++ {
				q := stream[i%len(stream)]
				qStart := time.Now()
				for attempt := 0; ; attempt++ {
					if attempt > 5000 {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("%s: %s never admitted", session, q.ID)
						}
						mu.Unlock()
						return
					}
					resp, err := s.Do(context.Background(), serve.Request{
						Session: session, SQL: q.SQL, Class: q.Class, Name: q.ID,
						// Encode the same row-major payload the HTTP
						// handler ships, so the serialize phase measures
						// real client-facing work.
						Serialize: func(r *serve.Response) (int, error) {
							cw := &countWriter{}
							if err := json.NewEncoder(cw).Encode(serve.TableRows(r.Result.Table.Columns())); err != nil {
								return 0, err
							}
							return cw.n, nil
						},
					})
					var refused *serve.RefusedError
					if errors.As(err, &refused) {
						time.Sleep(time.Millisecond)
						continue
					}
					mu.Lock()
					if err != nil {
						if firstErr == nil {
							firstErr = fmt.Errorf("%s: %s: %w", session, q.ID, err)
						}
						mu.Unlock()
						return
					}
					ms := float64(time.Since(qStart).Nanoseconds()) / 1e6
					perClass[q.Class] = append(perClass[q.Class], ms)
					waitMs = append(waitMs, resp.Phases.QueueWaitMs)
					execMs = append(execMs, resp.Phases.ExecMs)
					serMs = append(serMs, resp.Phases.SerializeMs)
					mu.Unlock()
					break
				}
			}
		}(u, stream)
	}
	wg.Wait()
	wall := time.Since(start)
	obs.Stop()
	obs.Scrape()
	if firstErr != nil {
		return nil, firstErr
	}
	rep := s.Drain(5 * time.Second)
	snap := s.AdmissionSnapshot()
	if got := snap.Admitted + snap.Shed + snap.TimedOut + snap.Drained; got != snap.Submitted {
		return nil, fmt.Errorf("bench: serving ledger does not reconcile: %d+%d+%d+%d != %d",
			snap.Admitted, snap.Shed, snap.TimedOut, snap.Drained, snap.Submitted)
	}

	res := &SustainedResult{
		Users:     mix.Users(),
		Wall:      wall,
		PerClass:  perClass,
		Snapshot:  snap,
		DrainRep:  rep,
		perClassO: []workload.Class{workload.Simple, workload.Intermediate, workload.Complex},
	}
	if wall > 0 {
		res.QPS = float64(snap.Admitted) / wall.Seconds()
	}
	if snap.Submitted > 0 {
		res.ShedRate = float64(snap.Shed) / float64(snap.Submitted)
	}
	var all []float64
	for _, lats := range perClass {
		all = append(all, lats...)
	}
	res.P50Ms, res.P95Ms, res.P99Ms = quantileMs(all, 0.50), quantileMs(all, 0.95), quantileMs(all, 0.99)
	res.QueueWaitP50Ms = quantileMs(waitMs, 0.50)
	res.ExecWallP50Ms = quantileMs(execMs, 0.50)
	res.SerializeP50Ms = quantileMs(serMs, 0.50)
	res.Series = captureTrend(obs, start.Add(-trendStep), time.Now())
	return res, nil
}

// quantileMs returns the q-quantile of samples (nearest-rank).
func quantileMs(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// Serve is the sustained-throughput experiment: the BD Insights user
// mix scaled to 205 users (140 dashboard / 45 report / 20 data
// scientist, one query each) against a deliberately tight admission
// queue, so the run exercises queueing, weighted dequeue and load
// shedding at saturation. Wall-clock numbers are machine-dependent
// trend data.
func (h *Harness) Serve(w io.Writer) error {
	header(w, "Sustained serving throughput (205 users, admission-controlled)")
	mix := workload.UserMix{Simple: 140, Intermediate: 45, Complex: 20, QueriesPerUser: 1}
	res, err := h.RunSustained(mix, serve.Config{QueueCapacity: 32})
	if err != nil {
		return err
	}
	snap := res.Snapshot
	fmt.Fprintf(w, "users=%d wall=%.2fs qps=%.1f shed_rate=%.1f%% (submitted=%d admitted=%d shed=%d)\n",
		res.Users, res.Wall.Seconds(), res.QPS, res.ShedRate*100, snap.Submitted, snap.Admitted, snap.Shed)
	fmt.Fprintf(w, "client latency (queueing + retries + execution): p50=%.1fms p95=%.1fms p99=%.1fms\n",
		res.P50Ms, res.P95Ms, res.P99Ms)
	fmt.Fprintf(w, "server phase medians: queue_wait=%.2fms exec_wall=%.2fms serialize=%.2fms\n",
		res.QueueWaitP50Ms, res.ExecWallP50Ms, res.SerializeP50Ms)
	fmt.Fprintf(w, "%-14s %-8s %-12s %-12s %s\n", "class", "queries", "p50(ms)", "p99(ms)", "max(ms)")
	rule(w, 60)
	for _, c := range res.perClassO {
		lats := res.PerClass[c]
		if len(lats) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s %-8d %-12.1f %-12.1f %.1f\n",
			string(c), len(lats), quantileMs(lats, 0.50), quantileMs(lats, 0.99), quantileMs(lats, 1.0))
	}
	fmt.Fprintf(w, "ledger: admitted+shed+timed_out+drained = %d+%d+%d+%d = submitted %d\n",
		snap.Admitted, snap.Shed, snap.TimedOut, snap.Drained, snap.Submitted)
	if len(res.Series) > 0 {
		fmt.Fprintf(w, "series: in-run trend (slope ≈ 0 means steady state; benchdiff -trend-slope gates it)\n")
		fmt.Fprintf(w, "  %-34s %-6s %-10s %-10s %s\n", "name", "n", "first", "last", "slope(/s)")
		for _, ss := range res.Series {
			if len(ss.Samples) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-34s %-6d %-10.3f %-10.3f %+.4f\n",
				ss.Name, len(ss.Samples), ss.Samples[0], ss.Samples[len(ss.Samples)-1], ss.Slope)
		}
	}
	return nil
}
