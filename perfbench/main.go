// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in its own process, through the packages' public entry
// points, checks every operation's output against a reference computed at
// set-up, and prints the result as one JSON line:
//
//	perfbench --workload fleet_steady --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with spans around each public call, replays one operation through the
// layers, and prints the per-layer metrics instead. --audit N repeats the
// run in N child processes and prints how steadily every metric repeats.
// See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed every workload input derives from")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	audit := flag.Int("audit", 0, "repeat the run in this many child processes and report steadiness")
	auditSeeds := flag.Bool("audit-seeds", false, "with --audit: give run i the seed seed+i")
	workDir := flag.String("workdir", ".bench_build/work", "scratch directory for daemon state")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, workloadNames()))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	if *audit > 0 {
		if err := runAudit(*audit, *auditSeeds, *seed); err != nil {
			fail(err)
		}
		return
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fail(err)
	}
	e := env{seed: *seed, workers: runtime.GOMAXPROCS(0), workDir: *workDir}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(context.Background(), w, e, dur)
	} else {
		res, err = runPlain(context.Background(), w, e, dur)
	}
	if err != nil {
		fail(fmt.Errorf("%s: %w", *workload, err))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// metric is one named measurement as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runPlain measures a workload untraced and reports the end-to-end metrics.
func runPlain(ctx context.Context, w workload, e env, dur time.Duration) (*result, error) {
	inst, setupS, err := setupMedian(ctx, w, e)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	s, err := measure(ctx, inst, dur, nil)
	if err != nil {
		return nil, err
	}
	logf("%s seed %d: %d ops (%d failed) in %.2fs, set-up median %.3fs over %d",
		w.name, e.seed, s.attempted, s.failed, s.wall.Seconds(), setupS, w.setups)
	logCounts(inst.counts)
	if n := missedTerminal.Load(); n > 0 {
		logf("%d job streams ended before their terminal line; their status was fetched instead", n)
	}
	m := s.endToEnd(inst)
	m["setup_s"] = metric{setupS, "s"}
	return &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}, nil
}

// setupMedian runs the workload's cold set-up w.setups times, each from
// fresh caches, runner and daemon, and returns the last instance with the
// median set-up time. A set-up under a second does not repeat within a
// tenth on its own, so one sample is not enough.
func setupMedian(ctx context.Context, w workload, e env) (*instance, float64, error) {
	var times []float64
	var inst *instance
	for i := 0; i < w.setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(ctx, e)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, median(times), nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// logCounts prints the exact per-op counts the audit compares across runs.
func logCounts(c map[string]float64) {
	b, _ := json.Marshal(c) // map of float64 always encodes
	fmt.Fprintf(os.Stderr, "counts %s\n", b)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
