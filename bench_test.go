package amuletiso

// Benchmark harness: one benchmark family per table/figure in the paper's
// evaluation. Each benchmark drives the full simulated pipeline and reports
// the paper's quantity as a custom metric:
//
//	BenchmarkTable1MemoryAccess/<mode>   -> sim-cycles/op   (Table 1 row 1)
//	BenchmarkTable1ContextSwitch/<mode>  -> sim-cycles/op   (Table 1 row 2)
//	BenchmarkFigure2/<app>/<mode>        -> Gcyc/week, battery%
//	BenchmarkFigure3/<bench>/<mode>      -> slowdown%
//
// Go's ns/op numbers measure the simulator itself; the sim-* metrics are
// the reproduced results. Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"amuletiso/internal/abi"
	"amuletiso/internal/aft"
	"amuletiso/internal/apps"
	"amuletiso/internal/arp"
	"amuletiso/internal/cc"
	"amuletiso/internal/cpu"
	"amuletiso/internal/fleet"
	"amuletiso/internal/kernel"
	"amuletiso/internal/mpu"
	"amuletiso/internal/obs"
)

// benchSystem builds a single-app kernel and consumes EvInit.
func benchSystem(b *testing.B, app apps.App, mode cc.Mode) *kernel.Kernel {
	b.Helper()
	fw, err := aft.Build([]aft.AppSource{app.AFT()}, mode)
	if err != nil {
		b.Fatal(err)
	}
	k := kernel.New(fw)
	k.RunUntil(1)
	return k
}

// dispatchOnce posts one event and runs it, failing the benchmark on fault.
func dispatchOnce(b *testing.B, k *kernel.Kernel, ev, arg uint16) uint64 {
	b.Helper()
	k.Post(0, ev, arg, 0)
	before := k.CPU.Cycles
	if !k.Step() {
		b.Fatal("event not delivered")
	}
	if len(k.Faults) > 0 {
		b.Fatalf("fault: %v", k.Faults)
	}
	return k.CPU.Cycles - before
}

// perOpCycles measures a per-operation cost with the two-batch difference.
func perOpCycles(b *testing.B, k *kernel.Kernel, ev uint16, n uint16) float64 {
	c1 := dispatchOnce(b, k, ev, n)
	c2 := dispatchOnce(b, k, ev, 2*n)
	return float64(c2-c1) / float64(n)
}

// BenchmarkTable1MemoryAccess regenerates Table 1's "Memory Access" row.
func BenchmarkTable1MemoryAccess(b *testing.B) {
	for _, mode := range Modes {
		b.Run(mode.String(), func(b *testing.B) {
			k := benchSystem(b, apps.Synthetic(), mode)
			var per float64
			for i := 0; i < b.N; i++ {
				per = perOpCycles(b, k, apps.EvMemOps, 200) / 2 // read+write per iter
			}
			b.ReportMetric(per, "sim-cycles/op")
		})
	}
}

// BenchmarkTable1ContextSwitch regenerates Table 1's "Context Switch" row
// (one API round trip through a pointer-carrying gate).
func BenchmarkTable1ContextSwitch(b *testing.B) {
	for _, mode := range Modes {
		b.Run(mode.String(), func(b *testing.B) {
			k := benchSystem(b, apps.Synthetic(), mode)
			var per float64
			for i := 0; i < b.N; i++ {
				per = perOpCycles(b, k, apps.EvGateOps, 200)
			}
			b.ReportMetric(per, "sim-cycles/op")
		})
	}
}

// BenchmarkTable1YieldSwitch is the ablation row: the cheapest gate (no
// pointer validation), isolating the MPU-reconfiguration share.
func BenchmarkTable1YieldSwitch(b *testing.B) {
	for _, mode := range Modes {
		b.Run(mode.String(), func(b *testing.B) {
			k := benchSystem(b, apps.Synthetic(), mode)
			var per float64
			for i := 0; i < b.N; i++ {
				per = perOpCycles(b, k, apps.EvYieldOps, 200)
			}
			b.ReportMetric(per, "sim-cycles/op")
		})
	}
}

// benchFig2Window keeps Figure 2 benchmarks affordable; cmd/paper runs the
// full 20-minute window.
const benchFig2Window = 2 * 60 * 1000

// BenchmarkFigure2 regenerates Figure 2: per app and isolation method, the
// weekly overhead in billions of cycles and the battery-lifetime impact.
func BenchmarkFigure2(b *testing.B) {
	for _, app := range Suite() {
		for _, mode := range arp.Figure2Modes {
			b.Run(fmt.Sprintf("%s/%s", app.Name, mode), func(b *testing.B) {
				var o *arp.Overhead
				var err error
				for i := 0; i < b.N; i++ {
					o, err = arp.Measure(app, mode, benchFig2Window)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(o.BillionsPerWeek, "sim-Gcyc/week")
				b.ReportMetric(o.BatteryImpactPct, "sim-battery%")
			})
		}
	}
}

// fig3Iters trades precision for benchmark runtime (the paper used 200).
const fig3Iters = 50

// BenchmarkFigure3 regenerates Figure 3: percentage slowdown per benchmark
// application and isolation method, hardware-timer measured.
func BenchmarkFigure3(b *testing.B) {
	type spec struct {
		name string
		app  apps.App
		ev   uint16
	}
	specs := []spec{
		{"ActivityCase1", apps.Activity(), apps.EvCase1},
		{"ActivityCase2", apps.Activity(), apps.EvCase2},
		{"Quicksort", apps.Quicksort(), apps.EvSort},
	}
	for _, sp := range specs {
		// Baseline per benchmark.
		base := map[int]uint64{}
		for _, mode := range Modes {
			mode := mode
			b.Run(fmt.Sprintf("%s/%s", sp.name, mode), func(b *testing.B) {
				var total uint64
				for i := 0; i < b.N; i++ {
					k := benchSystem(b, sp.app, mode)
					total = 0
					for it := 0; it < fig3Iters; it++ {
						k.Bus.Poke16(cpu.TimerTAR, 0)
						dispatchOnce(b, k, sp.ev, uint16(it))
						total += uint64(k.Bus.Peek16(cpu.TimerTAR)) * cpu.TimerPrescale
					}
				}
				if mode == NoIsolation {
					base[0] = total
					b.ReportMetric(0, "sim-slowdown%")
				} else if base[0] != 0 {
					slow := 100 * (float64(total) - float64(base[0])) / float64(base[0])
					b.ReportMetric(slow, "sim-slowdown%")
				}
			})
		}
	}
}

// BenchmarkAblationAdvancedMPU quantifies the paper's §5 claim that an MPU
// covering all of memory would make the compiler's lower-bound checks
// unnecessary: the same workload runs (a) unprotected, (b) uninstrumented
// under the hypothetical 4-region MPU, and (c) instrumented under the real
// MPU hybrid. The sim-cycles metric shows (b) == (a) < (c).
func BenchmarkAblationAdvancedMPU(b *testing.B) {
	const prog = `
int buf[64];
int main() {
    int i;
    int j = 0;
    for (i = 0; i < 2000; i++) {
        buf[j] = buf[j] + 1;
        j++;
        if (j >= 64) { j = 0; }
    }
    return buf[0];
}
`
	run := func(b *testing.B, mode cc.Mode, advanced bool) {
		p, err := cc.CompileProgram("abl", prog, cc.ProgramOptions{
			Mode: mode, EnableMPU: mode == cc.ModeMPU,
		})
		if err != nil {
			b.Fatal(err)
		}
		var cycles uint64
		for i := 0; i < b.N; i++ {
			m := p.Load()
			if advanced {
				m.MPU.Cap = mpu.CapabilityAdvanced
				m.MPU.Configure(m.Sym(abi.SymDataLo("abl")), m.Sym(abi.SymDataHi("abl")),
					mpu.RWX(1, false, false, true)|mpu.RWX(2, true, true, false), true)
			}
			reason, f := m.Run(50_000_000)
			if f != nil || reason != cpu.StopHalt {
				b.Fatalf("%v %v", reason, f)
			}
			cycles = m.CPU.Cycles
		}
		b.ReportMetric(float64(cycles), "sim-cycles")
	}
	b.Run("Unprotected", func(b *testing.B) { run(b, cc.ModeNoIsolation, false) })
	b.Run("AdvancedMPU-NoChecks", func(b *testing.B) { run(b, cc.ModeNoIsolation, true) })
	b.Run("RealMPU-Hybrid", func(b *testing.B) { run(b, cc.ModeMPU, false) })
}

// BenchmarkAblationShadowStack prices the §5 shadow return-address stack:
// recursion-heavy code with and without the InfoMem shadow maintenance.
func BenchmarkAblationShadowStack(b *testing.B) {
	const prog = `
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }
`
	for _, shadow := range []bool{false, true} {
		name := "Plain"
		if shadow {
			name = "ShadowStack"
		}
		b.Run(name, func(b *testing.B) {
			p, err := cc.CompileProgram("abl", prog, cc.ProgramOptions{
				Mode: cc.ModeMPU, EnableMPU: true, ShadowReturnStack: shadow,
				StackBytes: 1024,
			})
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m := p.Load()
				reason, f := m.Run(50_000_000)
				if f != nil || reason != cpu.StopHalt {
					b.Fatalf("%v %v", reason, f)
				}
				cycles = m.CPU.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkSimulator measures raw simulator speed (host ns per simulated
// event) — not a paper figure, but useful for sizing experiment windows.
// The traced leg runs the same dispatch with a flight recorder attached; the
// ns/op gap between the two legs is the tracing tax, which is capped at 2%.
func BenchmarkSimulator(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			k := benchSystem(b, apps.Synthetic(), MPU)
			if traced {
				k.AttachRecorder(obs.NewRecorder(obs.DefaultRing))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dispatchOnce(b, k, apps.EvMemOps, 100)
			}
		})
	}
}

// BenchmarkFleetThroughput measures fleet-simulation scaling: devices per
// second at 1, 4 and GOMAXPROCS workers, so future sharding/batching PRs can
// track whether the worker pool keeps up with the hardware.
func BenchmarkFleetThroughput(b *testing.B) {
	pedometer, _ := AppByName("pedometer")
	hr, _ := AppByName("hr")
	sc := fleet.Scenario{
		Name:       "bench",
		Apps:       []App{pedometer, hr},
		Mode:       cc.ModeMPU,
		DurationMS: 2_000,
		Devices:    32,
		Seed:       1,
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runner := &fleet.Runner{Workers: workers, Cache: fleet.NewBuildCache()}
			// Prime the build cache so the loop measures simulation, not
			// the one-time compile.
			if _, err := runner.Run(context.Background(), sc); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(context.Background(), sc); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start).Seconds()
			b.ReportMetric(float64(b.N*sc.Devices)/elapsed, "devices/sec")
		})
	}
}
