package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"blugpu/internal/engine"
	"blugpu/internal/fusion"
	"blugpu/internal/vtime"
)

// quantile returns the exact nearest-rank q-quantile of samples: the
// smallest sample with at least q of all samples at or below it. No
// histogram buckets are involved, so a 20% change in the tail shows as
// a 20% change here.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// counters is a snapshot of every cumulative counter the program
// exposes that a per-layer metric reads. Two snapshots bracket a
// measured window; their difference is the window's work.
type counters struct {
	evalRows       int64
	groupbyKernels uint64
	h2dBytes       int64
	d2hBytes       int64
	deviceBusy     vtime.Duration
	placeOK        uint64
	placeFail      uint64
	reserveFails   uint64
	fusion         fusion.Stats
	fusedChains    uint64
	decisions      uint64
	gpuDecisions   uint64
	memGated       uint64
	gbRetries      uint64
	gbFallbacks    uint64
	kmvCount       uint64
	kmvSum         float64
	allocBytes     float64
	gcCPU          float64
	totalCPU       float64
}

// runtimeSamples are the Go runtime metrics behind go.alloc_bytes_per_query
// and go.gc_cpu_frac.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func snapshot(eng *engine.Engine) counters {
	var c counters
	mon := eng.Monitor()
	for _, ev := range mon.Evaluators() {
		c.evalRows += ev.Rows
	}
	for _, k := range mon.Kernels() {
		if strings.HasPrefix(k.Name, "groupby_k") {
			c.groupbyKernels += k.Count
		}
	}
	h2d, d2h := mon.Transfers()
	c.h2dBytes, c.d2hBytes = h2d.Bytes, d2h.Bytes
	for _, d := range eng.Devices() {
		c.deviceBusy += d.Util().Busy()
	}
	if s := eng.Scheduler(); s != nil {
		c.placeOK, c.placeFail = s.PlaceCounts()
	}
	_, c.reserveFails = mon.ReserveCounts()
	if fc := eng.FusionCache(); fc != nil {
		c.fusion = fc.Stats()
	}
	c.fusedChains, _, _ = mon.FusedStats()
	for _, d := range mon.Decisions() {
		c.decisions += d.Count
		if d.Decision == "gpu" {
			c.gpuDecisions += d.Count
		}
		if d.Reason == "exceeds-device-memory" {
			c.memGated += d.Count
		}
	}
	for _, r := range mon.Retries() {
		if r.Op == "groupby" {
			c.gbRetries += r.Count
		}
	}
	for _, f := range mon.Fallbacks() {
		if f.Op == "groupby" {
			c.gbFallbacks += f.Count
		}
	}
	kmv := mon.KMVError()
	c.kmvCount, c.kmvSum = kmv.Count, kmv.Sum
	rs := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		rs[i].Name = name
	}
	metrics.Read(rs)
	c.allocBytes = float64(rs[0].Value.Uint64())
	c.gcCPU = rs[1].Value.Float64()
	c.totalCPU = rs[2].Value.Float64()
	return c
}

// sub returns the work done between snapshot b (earlier) and c.
func (c counters) sub(b counters) counters {
	return counters{
		evalRows:       c.evalRows - b.evalRows,
		groupbyKernels: c.groupbyKernels - b.groupbyKernels,
		h2dBytes:       c.h2dBytes - b.h2dBytes,
		d2hBytes:       c.d2hBytes - b.d2hBytes,
		deviceBusy:     c.deviceBusy - b.deviceBusy,
		placeOK:        c.placeOK - b.placeOK,
		placeFail:      c.placeFail - b.placeFail,
		reserveFails:   c.reserveFails - b.reserveFails,
		fusion: fusion.Stats{
			Hits:          c.fusion.Hits - b.fusion.Hits,
			Misses:        c.fusion.Misses - b.fusion.Misses,
			Evictions:     c.fusion.Evictions - b.fusion.Evictions,
			SavedBytes:    c.fusion.SavedBytes - b.fusion.SavedBytes,
			UploadedBytes: c.fusion.UploadedBytes - b.fusion.UploadedBytes,
		},
		fusedChains:  c.fusedChains - b.fusedChains,
		decisions:    c.decisions - b.decisions,
		gpuDecisions: c.gpuDecisions - b.gpuDecisions,
		memGated:     c.memGated - b.memGated,
		gbRetries:    c.gbRetries - b.gbRetries,
		gbFallbacks:  c.gbFallbacks - b.gbFallbacks,
		kmvCount:     c.kmvCount - b.kmvCount,
		kmvSum:       c.kmvSum - b.kmvSum,
		allocBytes:   c.allocBytes - b.allocBytes,
		gcCPU:        c.gcCPU - b.gcCPU,
		totalCPU:     c.totalCPU - b.totalCPU,
	}
}
