// Command amuletbench runs the repository's core performance benchmarks
// outside `go test` and emits a dated JSON snapshot, so the simulator's
// throughput trajectory accumulates as comparable BENCH_<date>.json files:
//
//	amuletbench                      # run all benches, write BENCH_<date>.json
//	amuletbench -label baseline      # write BENCH_<date>-baseline.json
//	amuletbench -nodecodecache       # measure the live-decode engine instead
//	amuletbench -stdout              # print the JSON instead of writing a file
//	amuletbench -benchtime 3s        # run each benchmark for at least 3s
//
// Each entry reports host ns/op and simulated instructions retired per host
// second — the "how fast is the simulator itself" metric the ROADMAP's
// performance arc tracks (the sim-* paper metrics stay in `go test -bench`).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"amuletiso/internal/aft"
	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/cpu"
	"amuletiso/internal/engine"
	"amuletiso/internal/fleet"
	"amuletiso/internal/kernel"
	"amuletiso/internal/obs"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`                   // operations timed
	NsPerOp     float64 `json:"ns/op"`                 // host nanoseconds per operation
	InstrPerSec float64 `json:"instr/s"`               // simulated instructions per host second
	SimInstr    uint64  `json:"simInstr"`              // total simulated instructions retired
	AllocsPerOp float64 `json:"allocs/op"`             // heap allocations per operation
	BytesPerOp  float64 `json:"bytes/op"`              // heap bytes allocated per operation
	WallSeconds float64 `json:"wall_seconds"`          // total measured wall time
	OverheadPct float64 `json:"overheadPct,omitempty"` // paired benches: percent over the reference op

	// DirtyPagesPerDev is the mean number of 256-byte COW pages a device
	// dirtied (boot benches only): the per-device memory footprint the COW
	// work tracks. 256 (the whole address space) under -nocow.
	DirtyPagesPerDev float64 `json:"dirtyPages/dev,omitempty"`
}

// Snapshot is the file-level schema of BENCH_<date>.json.
type Snapshot struct {
	Date        string   `json:"date"`
	GoMaxProcs  int      `json:"gomaxprocs"`
	DecodeCache bool     `json:"decodeCache"`
	ExecCerts   bool     `json:"execCerts"`
	Threading   bool     `json:"threading"`
	JIT         bool     `json:"jit"`
	Metrics     bool     `json:"metrics"`
	Tracing     bool     `json:"tracing"`
	COW         bool     `json:"cow"`
	Benchmarks  []Result `json:"benchmarks"`
}

func main() {
	benchtime := flag.Duration("benchtime", time.Second, "minimum measuring time per benchmark")
	label := flag.String("label", "", "suffix for the output file name (BENCH_<date>-<label>.json)")
	outDir := flag.String("out", ".", "directory for the snapshot file")
	toStdout := flag.Bool("stdout", false, "print JSON to stdout instead of writing a file")
	eng := engine.Flags(flag.CommandLine)
	noObs := flag.Bool("noobs", false, "disable observability (metrics; tracing stays per-benchmark)")
	force := flag.Bool("force", false, "overwrite an existing snapshot file")
	baseline := flag.String("baseline", "", "compare instr/s against this committed snapshot and fail on drift")
	tolerance := flag.Float64("tolerance", 50,
		"with -baseline: max tolerated instr/s drop, percent (hardware varies, so keep it wide)")
	overheadMax := flag.Float64("overhead-max", 0,
		"fail when a paired benchmark (TraceOverhead) measures more than this percent overhead (0 = report only)")
	flag.Parse()

	if *noObs {
		obs.SetMetrics(false)
	}
	if *benchtime <= 0 {
		fail(fmt.Errorf("-benchtime must be positive, got %v", *benchtime))
	}
	if *label == "" {
		// Keep ablation runs from clobbering the same-day baseline snapshot;
		// the auto-label names every active ablation so combined runs cannot
		// masquerade as single-flag baselines.
		var parts []string
		if *eng != (engine.Engine{}) {
			parts = append(parts, eng.String())
		}
		if *noObs {
			parts = append(parts, "noobs")
		}
		*label = strings.Join(parts, "-")
	}

	snap := Snapshot{
		Date:        time.Now().Format("2006-01-02"),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		DecodeCache: !eng.NoDecodeCache,
		ExecCerts:   !eng.NoCert,
		Threading:   !eng.NoThread,
		JIT:         !eng.NoJIT,
		Metrics:     obs.MetricsEnabled(),
		Tracing:     obs.TracingEnabled(),
		COW:         !eng.NoCOW,
	}
	for _, b := range benches {
		var res Result
		var err error
		if b.refSetup != nil {
			res, err = measurePaired(b, *eng, *benchtime)
		} else {
			res, err = measure(b, *eng, *benchtime)
		}
		if err != nil {
			fail(fmt.Errorf("%s: %w", b.name, err))
		}
		if b.finish != nil {
			b.finish(&res)
		}
		snap.Benchmarks = append(snap.Benchmarks, res)
		extra := ""
		if b.refSetup != nil {
			extra = fmt.Sprintf("  overhead %+.2f%%", res.OverheadPct)
			if *overheadMax > 0 && res.OverheadPct > *overheadMax {
				fail(fmt.Errorf("%s: %.2f%% overhead exceeds the %.0f%% cap",
					b.name, res.OverheadPct, *overheadMax))
			}
		}
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %14.0f instr/s (%d ops)%s\n",
			res.Name, res.NsPerOp, res.InstrPerSec, res.Ops, extra)
	}

	enc := json.NewEncoder(os.Stdout)
	if !*toStdout {
		name := "BENCH_" + snap.Date
		if *label != "" {
			name += "-" + *label
		}
		path := filepath.Join(*outDir, name+".json")
		if !*force {
			// A same-day re-run would silently replace the numbers the last
			// commit recorded — the bench-drift failure mode. Demand intent.
			if _, err := os.Stat(path); err == nil {
				fail(fmt.Errorf("%s already exists; pass -force to overwrite or -label to write a new file", path))
			}
		}
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		enc = json.NewEncoder(f)
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fail(err)
	}
	if *baseline != "" {
		if err := checkDrift(*baseline, snap, *tolerance); err != nil {
			fail(err)
		}
	}
}

// checkDrift compares each measured benchmark against the committed baseline
// snapshot, failing when any regresses more than tol percent. Throughput
// benchmarks compare instr/s; instruction-free benchmarks (DeviceBoot)
// compare ns/op instead, so the boot-template win stays gated too. Absolute
// numbers vary with host hardware, so the band is wide: the gate exists to
// catch engine-sized regressions (a disabled cache, an accidental O(n)
// fetch path, a template that stopped attaching), not single-digit noise.
func checkDrift(path string, snap Snapshot, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	baseBy := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseBy[r.Name] = r
	}
	var drifted []string
	for _, r := range snap.Benchmarks {
		b, ok := baseBy[r.Name]
		switch {
		case !ok:
		case b.InstrPerSec > 0:
			deltaPct := 100 * (r.InstrPerSec - b.InstrPerSec) / b.InstrPerSec
			fmt.Fprintf(os.Stderr, "drift %-28s %+7.1f%% instr/s vs %s\n", r.Name, deltaPct, path)
			if deltaPct < -tol {
				drifted = append(drifted,
					fmt.Sprintf("%s: %.0f instr/s is %.1f%% below baseline %.0f (tolerance %.0f%%)",
						r.Name, r.InstrPerSec, -deltaPct, b.InstrPerSec, tol))
			}
		case b.NsPerOp > 0:
			deltaPct := 100 * (r.NsPerOp - b.NsPerOp) / b.NsPerOp
			fmt.Fprintf(os.Stderr, "drift %-28s %+7.1f%% ns/op vs %s\n", r.Name, deltaPct, path)
			if deltaPct > tol {
				drifted = append(drifted,
					fmt.Sprintf("%s: %.0f ns/op is %.1f%% above baseline %.0f (tolerance %.0f%%)",
						r.Name, r.NsPerOp, deltaPct, b.NsPerOp, tol))
			}
		}
		// Allocation growth is gated on every benchmark that has a
		// baseline: allocs/op is nearly host-independent, so the same band
		// catches structural regressions (a boot path re-growing per-device
		// loads) that timing noise could hide.
		if ok && b.AllocsPerOp > 0 {
			deltaPct := 100 * (r.AllocsPerOp - b.AllocsPerOp) / b.AllocsPerOp
			if deltaPct > tol {
				drifted = append(drifted,
					fmt.Sprintf("%s: %.1f allocs/op is %.1f%% above baseline %.1f (tolerance %.0f%%)",
						r.Name, r.AllocsPerOp, deltaPct, b.AllocsPerOp, tol))
			}
		}
	}
	if len(drifted) > 0 {
		return fmt.Errorf("performance drifted outside the tolerance band:\n  %s", strings.Join(drifted, "\n  "))
	}
	return nil
}

// bench is one named workload: setup returns an op closure that performs one
// operation on the given engine and reports the simulated instructions it
// retired. A bench with a refSetup is measured paired: op and ref alternate
// in interleaved time slices, and OverheadPct compares the best slice of
// each side — the only way a percent-level delta survives host noise that
// dwarfs it.
type bench struct {
	name     string
	setup    func(engine.Engine) (op func() (uint64, error), err error)
	refSetup func(engine.Engine) (op func() (uint64, error), err error)
	// finish, when set, runs after measurement to attach workload-specific
	// numbers the op closure accumulated (e.g. dirty pages per device).
	finish func(r *Result)
}

// measurePaired measures b's op and ref interleaved: eight alternating time
// slices each, comparing the best slice of each side. Sequential A-then-B
// measurement cannot resolve a percent-level overhead on a host whose
// throughput wanders by ±20% over seconds; interleaving subjects both sides
// to the same drift and min-of-slices discards the transient spikes. The
// Result's throughput numbers come from the op side only.
func measurePaired(b bench, e engine.Engine, benchtime time.Duration) (Result, error) {
	op, err := b.setup(e)
	if err != nil {
		return Result{}, err
	}
	ref, err := b.refSetup(e)
	if err != nil {
		return Result{}, err
	}
	if _, err := op(); err != nil {
		return Result{}, err
	}
	if _, err := ref(); err != nil {
		return Result{}, err
	}
	const slices = 8
	slice := benchtime / slices
	runSlice := func(f func() (uint64, error)) (ops int, instr uint64, wall time.Duration, err error) {
		start := time.Now()
		for ops == 0 || time.Since(start) < slice {
			n, err := f()
			if err != nil {
				return 0, 0, 0, err
			}
			instr += n
			ops++
		}
		return ops, instr, time.Since(start), nil
	}
	var (
		bestOp, bestRef = math.Inf(1), math.Inf(1)
		ops             int
		instr, mallocs  uint64
		alloc           uint64
		wall            time.Duration
		m0, m1          runtime.MemStats
	)
	for i := 0; i < slices; i++ {
		rOps, _, rWall, err := runSlice(ref)
		if err != nil {
			return Result{}, err
		}
		if ns := float64(rWall.Nanoseconds()) / float64(rOps); ns < bestRef {
			bestRef = ns
		}
		runtime.ReadMemStats(&m0)
		oOps, oInstr, oWall, err := runSlice(op)
		if err != nil {
			return Result{}, err
		}
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		alloc += m1.TotalAlloc - m0.TotalAlloc
		ops += oOps
		instr += oInstr
		wall += oWall
		if ns := float64(oWall.Nanoseconds()) / float64(oOps); ns < bestOp {
			bestOp = ns
		}
	}
	return Result{
		Name:        b.name,
		Ops:         ops,
		NsPerOp:     float64(wall.Nanoseconds()) / float64(ops),
		InstrPerSec: float64(instr) / wall.Seconds(),
		SimInstr:    instr,
		AllocsPerOp: float64(mallocs) / float64(ops),
		BytesPerOp:  float64(alloc) / float64(ops),
		WallSeconds: wall.Seconds(),
		OverheadPct: 100 * (bestOp - bestRef) / bestRef,
	}, nil
}

// measure runs b's op until benchtime elapses (with a warm-up op first),
// recording host time and heap allocation per op (allocs/op regressions on
// the boot and dispatch paths are exactly the kind of engine-sized change
// the drift gate exists to catch).
func measure(b bench, e engine.Engine, benchtime time.Duration) (Result, error) {
	op, err := b.setup(e)
	if err != nil {
		return Result{}, err
	}
	if _, err := op(); err != nil { // warm-up: build caches, page in firmware
		return Result{}, err
	}
	var (
		ops    int
		instr  uint64
		m0, m1 runtime.MemStats
	)
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for ops == 0 || time.Since(start) < benchtime {
		n, err := op()
		if err != nil {
			return Result{}, err
		}
		instr += n
		ops++
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return Result{
		Name:        b.name,
		Ops:         ops,
		NsPerOp:     float64(wall.Nanoseconds()) / float64(ops),
		InstrPerSec: float64(instr) / wall.Seconds(),
		SimInstr:    instr,
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		WallSeconds: wall.Seconds(),
	}, nil
}

// benches mirrors the tracked `go test -bench` families: raw simulator speed
// (BenchmarkSimulator), a Figure 3 style compute-heavy standalone program,
// fleet throughput (BenchmarkFleetThroughput), and boot-only device cost
// (the template-clone path the zero-cost-boot work optimizes).
var benches = []bench{
	{name: "Simulator/MPU", setup: setupSimulator},
	{name: "TraceOverhead/MPU", setup: setupTraceOverhead, refSetup: setupSimulator},
	{name: "Standalone/Quicksort/MPU", setup: setupQuicksort},
	{name: "FleetThroughput/32dev", setup: setupFleet},
	{name: "FleetThroughput/100kdev", setup: setupFleet100k},
	{name: "DeviceBoot/32dev", setup: setupDeviceBoot, finish: finishDeviceBoot},
}

// setupSimulator measures one kernel event dispatch (the BenchmarkSimulator
// workload): a synthetic app's memory-ops handler under the MPU hybrid.
func setupSimulator(e engine.Engine) (func() (uint64, error), error) {
	app := apps.Synthetic()
	fw, err := aft.Build([]aft.AppSource{app.AFT()}, cc.ModeMPU)
	if err != nil {
		return nil, err
	}
	k := kernel.NewBootTemplate(fw).WithEngine(e).NewKernel(0)
	k.RunUntil(1) // consume EvInit
	return func() (uint64, error) {
		before := k.CPU.Insns
		k.Post(0, apps.EvMemOps, 100, 0)
		if !k.Step() {
			return 0, fmt.Errorf("event not delivered")
		}
		if len(k.Faults) > 0 {
			return 0, fmt.Errorf("fault: %v", k.Faults[len(k.Faults)-1])
		}
		return k.CPU.Insns - before, nil
	}, nil
}

// setupTraceOverhead is the Simulator/MPU workload with a flight recorder
// attached: the instr/s gap between the two is the tracing tax the ISSUE caps
// at 2%. The recorder is attached directly (not via the global tracing
// switch), so the rest of the suite measures the untraced engine.
func setupTraceOverhead(e engine.Engine) (func() (uint64, error), error) {
	app := apps.Synthetic()
	fw, err := aft.Build([]aft.AppSource{app.AFT()}, cc.ModeMPU)
	if err != nil {
		return nil, err
	}
	k := kernel.NewBootTemplate(fw).WithEngine(e).NewKernel(0)
	k.AttachRecorder(obs.NewRecorder(obs.DefaultRing))
	k.RunUntil(1) // consume EvInit
	return func() (uint64, error) {
		before := k.CPU.Insns
		k.Post(0, apps.EvMemOps, 100, 0)
		if !k.Step() {
			return 0, fmt.Errorf("event not delivered")
		}
		if len(k.Faults) > 0 {
			return 0, fmt.Errorf("fault: %v", k.Faults[len(k.Faults)-1])
		}
		return k.CPU.Insns - before, nil
	}, nil
}

// setupQuicksort measures a full standalone program run (compile once, run
// per op), the shape of the paper's Figure 3 benchmarks.
func setupQuicksort(e engine.Engine) (func() (uint64, error), error) {
	const src = `
int a[64];
int seed;
int rnd() { seed = seed * 1103 + 12345; return seed % 1000; }
void sort(int lo, int hi) {
    int i; int j; int p; int t;
    if (lo >= hi) { return; }
    p = a[(lo + hi) / 2]; i = lo; j = hi;
    while (i <= j) {
        while (a[i] < p) { i = i + 1; }
        while (a[j] > p) { j = j - 1; }
        if (i <= j) { t = a[i]; a[i] = a[j]; a[j] = t; i = i + 1; j = j - 1; }
    }
    sort(lo, j);
    sort(i, hi);
}
int main() {
    int i;
    seed = 7;
    for (i = 0; i < 64; i++) { a[i] = rnd(); }
    sort(0, 63);
    return a[0] + a[63];
}
`
	p, err := cc.CompileProgram("qs", src, cc.ProgramOptions{
		Mode: cc.ModeMPU, EnableMPU: true, StackBytes: 1024, Engine: e,
	})
	if err != nil {
		return nil, err
	}
	return func() (uint64, error) {
		m := p.Load()
		reason, fault := m.Run(50_000_000)
		if fault != nil || reason != cpu.StopHalt {
			return 0, fmt.Errorf("stop=%v fault=%v", reason, fault)
		}
		return m.CPU.Insns, nil
	}, nil
}

// setupFleet measures a 32-device fleet run per op, matching the
// BenchmarkFleetThroughput scenario.
func setupFleet(e engine.Engine) (func() (uint64, error), error) {
	pedometer, ok := apps.ByName("pedometer")
	if !ok {
		return nil, fmt.Errorf("no pedometer app")
	}
	hr, ok := apps.ByName("hr")
	if !ok {
		return nil, fmt.Errorf("no hr app")
	}
	sc := fleet.Scenario{
		Name:       "bench",
		Apps:       []apps.App{pedometer, hr},
		Mode:       cc.ModeMPU,
		DurationMS: 2_000,
		Devices:    32,
		Seed:       1,
		Engine:     e,
	}
	runner := &fleet.Runner{Cache: fleet.NewBuildCache()}
	return func() (uint64, error) {
		rep, err := runner.Run(context.Background(), sc)
		if err != nil {
			return 0, err
		}
		return rep.TotalInsns, nil
	}, nil
}

// setupFleet100k is the million-device scale probe: 100k devices over a short
// wear window per op. Boot cost dominates event delivery here, so this is the
// benchmark the COW work moves — under -nocow every device pays a 64 KiB
// clone, under COW a handful of page faults.
func setupFleet100k(e engine.Engine) (func() (uint64, error), error) {
	pedometer, ok := apps.ByName("pedometer")
	if !ok {
		return nil, fmt.Errorf("no pedometer app")
	}
	hr, ok := apps.ByName("hr")
	if !ok {
		return nil, fmt.Errorf("no hr app")
	}
	sc := fleet.Scenario{
		Name:       "bench-100k",
		Apps:       []apps.App{pedometer, hr},
		Mode:       cc.ModeMPU,
		DurationMS: 100,
		Devices:    100_000,
		Seed:       1,
		Engine:     e,
	}
	runner := &fleet.Runner{Cache: fleet.NewBuildCache()}
	return func() (uint64, error) {
		rep, err := runner.Run(context.Background(), sc)
		if err != nil {
			return 0, err
		}
		return rep.TotalInsns, nil
	}, nil
}

// bootDirtyPages/bootDevices accumulate the DeviceBoot workload's per-device
// dirty-page counts across ops; finishDeviceBoot folds them into the Result.
var bootDirtyPages, bootDevices uint64

// setupDeviceBoot measures pure boot cost: 32 kernels cloned from the shared
// boot template per op, no events delivered. It retires no simulated
// instructions (instr/s stays 0), so the drift gate tracks it by ns/op and
// allocs/op — the metrics the template-clone optimization moves.
func setupDeviceBoot(e engine.Engine) (func() (uint64, error), error) {
	pedometer, ok := apps.ByName("pedometer")
	if !ok {
		return nil, fmt.Errorf("no pedometer app")
	}
	hr, ok := apps.ByName("hr")
	if !ok {
		return nil, fmt.Errorf("no hr app")
	}
	list := []apps.App{pedometer, hr}
	cache := fleet.NewBuildCache()
	tmpl, err := cache.Template(list, cc.ModeMPU)
	if err != nil {
		return nil, err
	}
	tmpl = tmpl.WithEngine(e)
	sink := 0
	bootDirtyPages, bootDevices = 0, 0
	return func() (uint64, error) {
		for d := 0; d < 32; d++ {
			k := tmpl.NewKernel(fleet.DeviceSeed(1, d))
			sink += len(k.Apps)
			bootDirtyPages += uint64(k.Bus.DirtyPages())
			bootDevices++
		}
		if sink == 0 {
			return 0, fmt.Errorf("boot produced no apps")
		}
		return 0, nil
	}, nil
}

// finishDeviceBoot attaches the measured per-device dirty-page footprint.
func finishDeviceBoot(r *Result) {
	if bootDevices > 0 {
		r.DirtyPagesPerDev = float64(bootDirtyPages) / float64(bootDevices)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "amuletbench:", err)
	os.Exit(1)
}
