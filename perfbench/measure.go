package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"amuletiso/internal/obs"
)

// sample is what one timed window observed.
type sample struct {
	attempted, failed int
	opMS              []float64 // wall time of every op, in completion order
	tracedMS          []float64 // traced ops only (traced runs)
	wall              time.Duration
	cpu               time.Duration // process user+sys time over the window
	mallocs, bytes    uint64
	maxRSSKB          int64
	counters          map[string]uint64 // obs counter deltas over the window
}

// measure runs closed-loop clients until dur elapses. Each client issues its
// next op only after the previous one returned; ops in flight at the
// deadline complete and count, so counter deltas cover whole ops only.
func measure(ctx context.Context, inst *instance, dur time.Duration, tr *tracer) (*sample, error) {
	runtime.GC()
	var (
		mu     sync.Mutex
		s      = &sample{}
		next   atomic.Int64
		m0, m1 runtime.MemStats
		wg     sync.WaitGroup
	)
	c0 := readCounters()
	ru0 := rusage()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < inst.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				// A traced run does every op twice, untraced then traced, so
				// both halves see the same work.
				var t *tracer
				if tr != nil {
					if k%2 == 1 {
						t = tr
					}
					k /= 2
				}
				t0 := time.Now()
				err := inst.op(ctx, k, t)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				mu.Lock()
				s.attempted++
				if err != nil {
					s.failed++
					if s.failed <= 3 {
						logf("op %d failed: %v", k, err)
					}
				}
				if t != nil {
					s.tracedMS = append(s.tracedMS, ms)
				} else {
					s.opMS = append(s.opMS, ms)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	ru1 := rusage()
	s.counters = counterDelta(c0, readCounters())
	s.cpu = cpuTime(ru1) - cpuTime(ru0)
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.bytes = m1.TotalAlloc - m0.TotalAlloc
	s.maxRSSKB = ru1.Maxrss
	if s.attempted == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	return s, nil
}

// endToEnd derives the end-to-end metrics of an untraced window.
func (s *sample) endToEnd(inst *instance) map[string]metric {
	ops := float64(s.attempted)
	ok := s.attempted - s.failed
	// Every op's output equals its reference, so the op retired exactly the
	// reference's simulated cycles.
	cycles := inst.counts["sim_cycles_per_op"]
	return map[string]metric{
		"op_ms_p50":         {percentile(s.opMS, 50), "ms"},
		"ops_per_s":         {ops / s.wall.Seconds(), "1/s"},
		"cpu_ms_per_op":     {float64(s.cpu.Nanoseconds()) / 1e6 / ops, "ms"},
		"sim_mcycles_per_s": {cycles * ops / 1e6 / s.wall.Seconds(), "Mcycles/s"},
		"sim_cycles_per_op": {cycles, "count"},
		"allocs_per_op":     {float64(s.mallocs) / ops, "count"},
		"alloc_mb_per_op":   {float64(s.bytes) / 1e6 / ops, "MB"},
		"peak_rss_mb":       {float64(s.maxRSSKB) / 1024, "MB"},
		"ok_pct":            {100 * float64(ok) / ops, "%"},
	}
}

// p90 is the nearest-rank 90th percentile of v, with a warning when fewer
// than ten samples lie beyond it.
func p90(v []float64) float64 {
	if beyond := len(v) - int(math.Ceil(0.9*float64(len(v)))); beyond < 10 {
		logf("warning: only %d samples beyond p90; lengthen --seconds", beyond)
	}
	return percentile(v, 90)
}

// percentile is the nearest-rank percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// countedMetrics are the obs counters whose per-op deltas the benchmark
// reports: each is an exact count of work a layer did.
var countedMetrics = []string{
	obs.MetricInstrSimulated,
	obs.MetricBrownouts,
	obs.MetricReboots,
	"amulet_fleetd_shards_merged_total",
	obs.MetricJITBlocksCompiled,
	obs.MetricJITCompileNS,
	obs.MetricPagesDirtied,
	obs.MetricPagesRecycled,
	obs.MetricTortureCase,
	obs.MetricDispatches,
}

func readCounters() map[string]uint64 {
	out := make(map[string]uint64, len(countedMetrics)+1)
	for _, name := range countedMetrics {
		if c := obs.Default.Lookup(name); c != nil {
			out[name] = c.Value()
		}
	}
	if v := obs.Default.LookupVec(obs.MetricJITDeopts); v != nil {
		out[obs.MetricJITDeopts] = v.Total()
	}
	return out
}

func counterDelta(a, b map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(b))
	for k, v := range b {
		out[k] = v - a[k]
	}
	return out
}
