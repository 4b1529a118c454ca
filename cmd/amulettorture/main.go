// Command amulettorture runs whole-program fuzzing campaigns against the
// isolation pipeline: generated AmuletC programs compiled through the real
// cc → asm → image toolchain and executed on the simulated CPU.
//
//	amulettorture -n 1000 -seed 1                      # differential campaign
//	amulettorture -kind adversarial -n 1000 -json      # out-of-region attack campaign
//	amulettorture -kind hosted -n 200                  # gate/watchdog attacks under the kernel
//	amulettorture -kind all -n 300                     # everything
//	amulettorture -emit 42                             # print one generated program
//	amulettorture -write-corpus internal/torture/testdata
//
// A differential campaign asserts every generated program behaves
// identically under the unprotected baseline and each isolated model; an
// adversarial campaign injects out-of-region loads, stores and jumps and
// asserts each is trapped by the predicted layer (compiler check, MPU
// segment, kernel gate or watchdog). Reports are byte-identical for a given
// seed regardless of -parallel, and campaigns shard across machines with
// -first exactly like amuletfleet devices. Failing cases are shrunk to
// minimal reproducers; -out saves them as replayable corpus files.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"amuletiso/internal/engine"
	"amuletiso/internal/obs"
	"amuletiso/internal/torture"
)

func main() {
	n := flag.Int("n", 1000, "number of generated programs per campaign")
	first := flag.Int("first", 0, "first case index (for sharding a campaign across machines)")
	seed := flag.Uint64("seed", 1, "campaign seed (per-case seeds derive from it)")
	kind := flag.String("kind", "differential", "campaign kind: differential, adversarial, hosted, brownout or all")
	parallel := flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	restrictedEvery := flag.Int("restricted-every", 0,
		"every Nth case uses the restricted dialect (0 = kind default)")
	noShrink := flag.Bool("no-shrink", false, "report failures unshrunk")
	jsonOut := flag.Bool("json", false, "emit the report(s) as JSON on stdout")
	outDir := flag.String("out", "", "write failing cases as replayable corpus files to this directory")
	emit := flag.Uint64("emit", 0, "print the generated program for this seed and exit")
	emitKind := flag.String("emit-kind", "differential", "case kind for -emit")
	writeCorpus := flag.String("write-corpus", "", "regenerate the committed regression corpus into this directory and exit")
	eng := engine.Flags(flag.CommandLine)
	noObs := flag.Bool("noobs", false,
		"disable observability (metrics and tracing); campaigns must report identical bytes either way")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	progressEvery := flag.Duration("progress", 0, "print a progress line to stderr at this interval (e.g. 2s; 0 = off)")
	flag.Parse()

	if *noObs {
		obs.SetMetrics(false)
		obs.SetTracing(false)
	}

	if *metricsAddr != "" {
		bound, stopServe, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fail(err)
		}
		defer stopServe()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (pprof at /debug/pprof/)\n", bound)
	}
	if *progressEvery > 0 {
		stopProgress := startProgress(*progressEvery)
		defer stopProgress()
	}

	if *emit != 0 {
		c := torture.BuildCase(*emitKind, *emit, false)
		fmt.Print(c.Source)
		if c.Attack != nil {
			fmt.Printf("// attack: %s\n", c.Attack)
		}
		return
	}
	if *writeCorpus != "" {
		names, err := torture.BuildCorpus(*writeCorpus, torture.CorpusSeed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d corpus cases to %s\n", len(names), *writeCorpus)
		return
	}

	kinds := []string{*kind}
	if *kind == "all" {
		kinds = []string{torture.KindDifferential, torture.KindAdversarial, torture.KindHosted, torture.KindBrownout}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	exitCode := 0
	var reports []*torture.Report
	for _, k := range kinds {
		cfg := torture.DefaultConfig(k)
		cfg.Programs = *n
		cfg.First = *first
		cfg.Seed = *seed
		cfg.Workers = *parallel
		cfg.Shrink = !*noShrink
		cfg.Engine = *eng
		if *restrictedEvery > 0 {
			cfg.RestrictedEvery = *restrictedEvery
		}
		start := time.Now()
		rep, err := torture.Run(ctx, cfg)
		if err != nil {
			fail(err)
		}
		reports = append(reports, rep)
		if !*jsonOut {
			fmt.Print(rep.Summary())
			fmt.Printf("  wall: %.2fs (%.0f programs/sec)\n",
				time.Since(start).Seconds(), float64(cfg.Programs)/time.Since(start).Seconds())
		}
		if rep.Failed > 0 {
			exitCode = 1
			if *outDir != "" {
				if err := saveFailures(*outDir, k, rep); err != nil {
					fail(err)
				}
			}
		}
	}
	if !*jsonOut {
		fmt.Println(buildCounters())
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		var err error
		if len(reports) == 1 {
			err = enc.Encode(reports[0])
		} else {
			err = enc.Encode(reports)
		}
		if err != nil {
			fail(err)
		}
	}
	os.Exit(exitCode)
}

// saveFailures writes each failing case's shrunk reproducer as a corpus
// file, replayable with `go test ./internal/torture` once moved into
// testdata/ (or re-run via amulettorture -emit on its seed).
func saveFailures(dir, kind string, rep *torture.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range rep.Failures {
		c := &torture.Case{
			Name:       fmt.Sprintf("fail-%s-%06d", kind, f.Index),
			Kind:       f.Kind,
			Seed:       f.Seed,
			Restricted: f.Restricted,
			Source:     f.Source,
			Attack:     f.Attack,
			Note:       fmt.Sprintf("shrunk failure [%s]: %s", f.Category, f.Reason),
		}
		if err := torture.WriteCase(dir, c); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "  wrote %s/%s.json\n", dir, c.Name)
	}
	return nil
}

// buildCounters renders the process-wide case and firmware-build counters —
// the same series /metrics exposes, for one-shot CLI output.
func buildCounters() string {
	c := func(name string) uint64 {
		if m := obs.Default.Lookup(name); m != nil {
			return m.Value()
		}
		return 0
	}
	return fmt.Sprintf("cases executed: %d; firmware builds: %d (%d cache hits); boot templates: %d built (%d cache hits)",
		c(obs.MetricTortureCase),
		c(obs.MetricFirmwareBuilds), c(obs.MetricBuildCacheHits),
		c(obs.MetricTemplateBuilds), c(obs.MetricTemplateHits))
}

// startProgress prints a periodic cases-executed line on stderr, reading the
// same process-global counters /metrics serves.
func startProgress(every time.Duration) (stop func()) {
	cases := func() uint64 { return 0 }
	if m := obs.Default.Lookup(obs.MetricTortureCase); m != nil {
		cases = m.Value
	}
	lastCases := cases()
	return obs.StartProgress(os.Stderr, every, func() string {
		now := cases()
		delta := now - lastCases
		lastCases = now
		return fmt.Sprintf("progress: %d cases executed (%s)", now, obs.Rate(delta, every))
	})
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "amulettorture:", err)
	os.Exit(1)
}
