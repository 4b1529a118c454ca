// Command amuletfleet simulates a fleet of independent Amulet devices in
// parallel and reports aggregate isolation-workload statistics.
//
//	amuletfleet -devices 1000 -mode mpu -seed 42
//	amuletfleet -devices 200 -mode all -apps pedometer,hr -ms 120000 -json
//
// Each device runs the same application set under the same isolation mode
// for the same virtual wear window, but with its own deterministically
// derived noise seed, so the fleet sees decorrelated workloads while the
// whole run stays reproducible: the same fleet seed produces an identical
// report at any -parallel setting. Firmware for each (app set, mode) pair is
// compiled exactly once and shared by every device.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"time"

	"amuletiso"
	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/engine"
	"amuletiso/internal/fleet"
	"amuletiso/internal/kernel"
	"amuletiso/internal/obs"
)

func main() {
	devices := flag.Int("devices", 100, "number of simulated devices")
	firstDevice := flag.Int("first-device", 0, "first device index (for sharding a fleet across machines)")
	modeName := flag.String("mode", "mpu", "isolation mode (or 'all')")
	appList := flag.String("apps", "", "comma-separated app names (default: the nine-app suite)")
	ms := flag.Uint64("ms", 60_000, "virtual milliseconds of wear per device")
	seed := flag.Uint64("seed", 1, "fleet seed (per-device seeds derive from it)")
	parallel := flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	buttonEvery := flag.Uint64("button-every", 0, "inject a button press every N ms (0 = off)")
	faultEvery := flag.Uint64("fault-every", 0, "inject a fault into -fault-app every N ms (0 = off)")
	faultApp := flag.Int("fault-app", 0, "app index targeted by -fault-every")
	maxFaults := flag.Int("max-faults", 3, "restart policy: faults before an app stays dead")
	backoff := flag.Uint64("backoff", 1000, "restart policy: backoff before restart, ms")
	powerTrace := flag.String("power-trace", "", "run devices on harvested power: solar, kinetic or recorded, optionally :mW peak (e.g. solar:4)")
	brownoutEvery := flag.Uint64("brownout-every", 0, "force a brownout every N ms on every device (0 = off; excludes -power-trace)")
	brownoutOff := flag.Uint64("brownout-off", 0, "forced-brownout dark time before reboot, ms (0 = 500)")
	repeat := flag.Int("repeat", 1, "run each scenario this many times, must be >= 1 (soak mode: every run is a byte-identical re-run from the warm build cache and only the last report is kept — useful for live-metrics scrapes and leak hunts)")
	jsonOut := flag.Bool("json", false, "emit the report(s) as JSON on stdout")
	name := flag.String("name", "fleet", "scenario name recorded in the report")
	eng := engine.Flags(flag.CommandLine)
	noObs := flag.Bool("noobs", false, "disable observability (metrics and tracing)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	progressEvery := flag.Duration("progress", 0, "print a progress line to stderr at this interval (e.g. 2s; 0 = off)")
	faultTrace := flag.Bool("fault-trace", false, "attach per-device flight recorders and dump the last events of faulting devices into the report")
	flag.Parse()

	if *repeat < 1 {
		// The old `i < repeat || i == 0` loop silently ran once for 0 or
		// negative repeats; that masks typos in soak scripts. Reject instead.
		fail(fmt.Errorf("-repeat must be >= 1 (got %d)", *repeat))
	}
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

	modes, err := parseModes(*modeName)
	if err != nil {
		fail(err)
	}
	list, err := parseApps(*appList)
	if err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runner := &fleet.Runner{Workers: *parallel, Cache: fleet.NewBuildCache()}
	var reports []*fleet.Report
	for _, mode := range modes {
		sc := fleet.Scenario{
			Name:            *name,
			Apps:            list,
			Mode:            mode,
			DurationMS:      *ms,
			Devices:         *devices,
			FirstDevice:     *firstDevice,
			Seed:            *seed,
			ButtonEveryMS:   *buttonEvery,
			FaultEveryMS:    *faultEvery,
			FaultApp:        *faultApp,
			FaultTrace:      *faultTrace,
			PowerTrace:      *powerTrace,
			BrownoutEveryMS: *brownoutEvery,
			BrownoutOffMS:   *brownoutOff,
			Policy:          &kernel.RestartPolicy{MaxFaults: *maxFaults, BackoffMS: *backoff},
			Engine:          *eng,
		}
		start := time.Now()
		var rep *fleet.Report
		// Repeats are byte-identical re-runs (same seed, warm build cache);
		// only the last report is kept.
		for i := 0; i < *repeat; i++ {
			var err error
			rep, err = runner.Run(ctx, sc)
			if err != nil {
				fail(err)
			}
		}
		reports = append(reports, rep)
		if !*jsonOut {
			printHuman(rep, time.Since(start))
		}
	}
	builds, hits := runner.Cache.Stats()
	tmplBuilds, tmplHits := runner.Cache.TemplateStats()
	pageGets, pagePuts := runner.ArenaStats()
	cacheLine := fmt.Sprintf("firmware builds: %d (%d cache hits); boot templates: %d built (%d cache hits); cow pages: %d reused, %d recycled",
		builds, hits, tmplBuilds, tmplHits, pageGets, pagePuts)
	cacheLine += "\n" + jitLine()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		// A single mode emits one object (the stable scripting interface);
		// -mode all emits an array.
		if len(reports) == 1 {
			err = enc.Encode(reports[0])
		} else {
			err = enc.Encode(reports)
		}
		if err != nil {
			fail(err)
		}
		// Keep stdout pure JSON; the cache counters go to stderr.
		fmt.Fprintln(os.Stderr, cacheLine)
	} else {
		fmt.Println(cacheLine)
	}
}

// parseModes resolves a mode flag: one name, or "all" for every model.
func parseModes(name string) ([]cc.Mode, error) {
	if strings.EqualFold(name, "all") {
		return cc.Modes, nil
	}
	for _, m := range cc.Modes {
		if strings.EqualFold(m.String(), name) {
			return []cc.Mode{m}, nil
		}
	}
	return nil, fmt.Errorf("unknown mode %q (try NoIsolation, FeatureLimited, SoftwareOnly, MPU or all)", name)
}

// parseApps resolves the app-set flag against the bundled registry; empty
// selects the full nine-app suite.
func parseApps(list string) ([]apps.App, error) {
	if list == "" {
		return amuletiso.Suite(), nil
	}
	var out []apps.App
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		app, ok := amuletiso.AppByName(name)
		if !ok {
			return nil, fmt.Errorf("no bundled app %q", name)
		}
		out = append(out, app)
	}
	return out, nil
}

func printHuman(r *fleet.Report, elapsed time.Duration) {
	fmt.Printf("%s: %d devices × %d ms under %s (seed %d)\n",
		r.Scenario, r.Devices, r.DurationMS, r.Mode, r.Seed)
	fmt.Printf("  events=%d dispatches=%d syscalls=%d cycles=%d\n",
		r.TotalEvents, r.TotalDispatches, r.TotalSyscalls, r.TotalCycles)
	fmt.Printf("  device cycles: min=%.0f p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
		r.CycleSummary.Min, r.CycleSummary.P50, r.CycleSummary.P90,
		r.CycleSummary.P99, r.CycleSummary.Max)
	fmt.Printf("  weekly battery impact %%: p50=%.3f p99=%.3f max=%.3f\n",
		r.BatterySummary.P50, r.BatterySummary.P99, r.BatterySummary.Max)
	fmt.Printf("  projected battery lifetime (h): min=%.1f p50=%.1f p99=%.1f\n",
		r.LifetimeSummary.Min, r.LifetimeSummary.P50, r.LifetimeSummary.P99)
	if r.TotalBrownouts > 0 {
		fmt.Printf("  brownouts=%d across %d devices\n", r.TotalBrownouts, r.DevicesBrownedOut)
	}
	if ls := r.LatencySummary; ls.Count > 0 {
		fmt.Printf("  event latency (cycles): p50=%d p90=%d p99=%d max=%d over %d events\n",
			ls.P50, ls.P90, ls.P99, ls.Max, ls.Count)
	}
	if r.TotalFaults > 0 {
		fmt.Printf("  faults=%d across %d devices\n", r.TotalFaults, r.DevicesFaulted)
		classes := make([]string, 0, len(r.FaultClasses))
		for class := range r.FaultClasses {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			fmt.Printf("    layer %-9s %4d×\n", class, r.FaultClasses[class])
		}
		reasons := make([]string, 0, len(r.FaultReasons))
		for reason := range r.FaultReasons {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			fmt.Printf("    %4d× %s\n", r.FaultReasons[reason], reason)
		}
	}
	rate := float64(r.Devices) / elapsed.Seconds()
	fmt.Printf("  wall: %.2fs on %d CPUs (%.0f devices/sec)\n",
		elapsed.Seconds(), runtime.GOMAXPROCS(0), rate)
}

// jitLine renders the process-wide superblock-JIT counters — the same series
// /metrics exposes — for one-shot CLI output: what got compiled, what the
// passes saved, why compiled blocks fell back to the interpreter, and which
// tier retired the instructions.
func jitLine() string {
	c := func(name string) uint64 {
		if m := obs.Default.Lookup(name); m != nil {
			return m.Value()
		}
		return 0
	}
	var deopts uint64
	if v := obs.Default.LookupVec(obs.MetricJITDeopts); v != nil {
		deopts = v.Total()
	}
	var tiers [3]uint64
	if v := obs.Default.LookupVec(obs.MetricInstrRetired); v != nil {
		tiers = [3]uint64{v.Value("interp"), v.Value("jit_generic"), v.Value("jit_specialized")}
	}
	return fmt.Sprintf("jit: %d blocks (%d steps) compiled in %s; %d flag stores elided, %d ext words baked, %d addrs folded; %d deopts; retired %d interp, %d jit generic, %d jit specialized",
		c(obs.MetricJITBlocksCompiled), c(obs.MetricJITStepsCompiled),
		time.Duration(c(obs.MetricJITCompileNS)),
		c(obs.MetricJITFlagsElided), c(obs.MetricJITExtElided),
		c(obs.MetricJITAddrsFolded), deopts, tiers[0], tiers[1], tiers[2])
}

// startProgress prints a periodic devices-done / instr-per-second line on
// stderr, reading the same process-global counters /metrics serves.
func startProgress(every time.Duration) (stop func()) {
	counter := func(name string) func() uint64 {
		if m := obs.Default.Lookup(name); m != nil {
			return m.Value
		}
		return func() uint64 { return 0 }
	}
	done := counter(obs.MetricDevicesCompleted)
	instr := counter(obs.MetricInstrSimulated)
	lastInstr := instr()
	return obs.StartProgress(os.Stderr, every, func() string {
		now := instr()
		delta := now - lastInstr
		lastInstr = now
		return fmt.Sprintf("progress: %d devices done, %s instructions (%s)",
			done(), obs.Rate(delta, every), time.Now().Format("15:04:05"))
	})
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "amuletfleet:", err)
	os.Exit(1)
}
