// Command amuletsim runs firmware on the simulated MCU.
//
// Two forms:
//
//	amuletsim -main prog.c        compile a standalone program (int main())
//	                              and run it to halt, printing the exit
//	                              code, console output and cycle count;
//	amuletsim -app NAME [-ms N]   boot the kernel with a bundled app and
//	                              run N ms of virtual wear, printing app
//	                              state, log records and fault reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"amuletiso"
	"amuletiso/internal/aft"
	"amuletiso/internal/cc"
	"amuletiso/internal/cpu"
	"amuletiso/internal/engine"
	"amuletiso/internal/kernel"
	"amuletiso/internal/obs"
	"amuletiso/internal/power"
)

func main() {
	mainFile := flag.String("main", "", "standalone AmuletC program with main()")
	appName := flag.String("app", "", "bundled application to run under the kernel")
	modeName := flag.String("mode", "MPU", "isolation mode")
	ms := flag.Uint64("ms", 10_000, "virtual milliseconds to run (kernel form)")
	budget := flag.Uint64("budget", 100_000_000, "cycle budget (standalone form)")
	eng := engine.Flags(flag.CommandLine)
	powerTrace := flag.String("power-trace", "", "run the device on harvested power: solar, kinetic or recorded, optionally :mW peak (kernel form)")
	tracePath := flag.String("trace", "", "export the run as Chrome trace-event JSON to this file (kernel form)")
	flag.Parse()

	var mode cc.Mode
	found := false
	for _, m := range cc.Modes {
		if strings.EqualFold(m.String(), *modeName) {
			mode, found = m, true
		}
	}
	if !found {
		fail(fmt.Errorf("unknown mode %q", *modeName))
	}

	switch {
	case *mainFile != "":
		runStandalone(*mainFile, mode, *budget, *eng)
	case *appName != "" && *powerTrace != "":
		runAppPowered(*appName, mode, *ms, *powerTrace, *eng)
	case *appName != "":
		runApp(*appName, mode, *ms, *tracePath, *eng)
	default:
		fmt.Fprintln(os.Stderr, "amuletsim: pass -main prog.c or -app name")
		flag.Usage()
		os.Exit(2)
	}
}

func runStandalone(path string, mode cc.Mode, budget uint64, eng engine.Engine) {
	src, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	prog, err := cc.CompileProgram("prog", string(src), cc.ProgramOptions{
		Mode: mode, EnableMPU: mode == cc.ModeMPU, Engine: eng,
	})
	if err != nil {
		fail(err)
	}
	m := prog.Load()
	reason, fault := m.Run(budget)
	if len(m.CPU.Console) > 0 {
		fmt.Printf("console: %s\n", m.CPU.Console)
	}
	fmt.Printf("stop=%v cycles=%d insns=%d\n", reason, m.CPU.Cycles, m.CPU.Insns)
	switch reason {
	case cpu.StopHalt:
		if m.CPU.ExitCode == cc.FaultExitCode {
			fmt.Println("exit: ISOLATION FAULT (check stub)")
			os.Exit(3)
		}
		fmt.Printf("exit: %d\n", int16(m.CPU.ExitCode))
	case cpu.StopFault:
		fmt.Printf("hardware fault: %v\n", fault)
		os.Exit(3)
	}
}

// bootApp builds the bundled app's firmware under mode and returns the app
// with a boot template whose kernels run on eng.
func bootApp(name string, mode cc.Mode, eng engine.Engine) (amuletiso.App, *kernel.BootTemplate) {
	app, ok := amuletiso.AppByName(name)
	if !ok {
		fail(fmt.Errorf("no bundled app %q", name))
	}
	fw, err := aft.Build([]aft.AppSource{app.AFT()}, mode)
	if err != nil {
		fail(err)
	}
	return app, kernel.NewBootTemplate(fw).WithEngine(eng)
}

func runApp(name string, mode cc.Mode, ms uint64, tracePath string, eng engine.Engine) {
	app, tmpl := bootApp(name, mode, eng)
	k := tmpl.NewKernel(0)
	if tracePath != "" {
		// Full-run export wants every event, not a post-mortem window: an
		// unbounded recorder replaces whatever the boot hatch attached.
		k.AttachRecorder(obs.NewRecorder(0))
	}
	n := k.RunUntil(ms)
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fail(err)
		}
		if err := obs.WriteChromeTrace(f, k.Recorder().Events()); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("trace: %d events exported to %s (load in chrome://tracing)\n",
			k.Recorder().Len(), tracePath)
	}
	st := k.Apps[0]
	fmt.Printf("%s under %v: %d events in %d ms of wear\n", app.Title, mode, n, ms)
	fmt.Printf("  dispatches=%d syscalls=%d active-cycles=%d alive=%v\n",
		st.Dispatches, st.Syscalls, st.Cycles, st.Alive)
	for _, v := range st.LogValues {
		fmt.Printf("  log tag=%d value=%d at %dms\n", v.Tag, v.Value, v.AtMS)
	}
	if len(st.Log) > 0 {
		fmt.Printf("  raw log: % X\n", st.Log)
	}
	for row, text := range k.Display.Rows {
		fmt.Printf("  display[%d] = %q\n", row, text)
	}
	for _, f := range k.Faults {
		fmt.Printf("  FAULT app=%d at=%dms: %s\n", f.App, f.AtMS, f.Reason)
	}
	fmt.Println(" ", buildCounters())
}

// runAppPowered runs the kernel form on harvested power: charge integrates at
// fixed 50 ms boundaries against the same supercapacitor model amuletfleet
// devices use; a brownout drops the kernel's volatile state in place and
// parks it, and once the supply recovers the same kernel reboots from its
// FRAM state.
func runAppPowered(name string, mode cc.Mode, ms uint64, spec string, eng engine.Engine) {
	profile, err := power.Parse(spec)
	if err != nil {
		fail(err)
	}
	app, tmpl := bootApp(name, mode, eng)
	k := tmpl.NewKernel(0)

	const stepMS = 50
	trace := profile.Trace(0)
	cap := power.DefaultSupercap()
	charge := cap.CapacityPJ
	var (
		events, brownouts, reboots int
		lastCycles                 uint64
		dark                       bool
	)
	for t := uint64(stepMS); t <= ms; t += stepMS {
		harvest := trace.HarvestRangePJ(t-stepMS, t)
		if dark { // harvest-only until the restart threshold
			charge = min(charge+harvest, cap.CapacityPJ)
			if charge >= cap.RestartPJ {
				tmpl.Reboot(k, t)
				dark = false
				lastCycles = k.CPU.Cycles
				reboots++
				fmt.Printf("  reboot at %dms (charge %.1fmJ)\n", t, float64(charge)/1e9)
			}
			continue
		}
		events += k.RunUntil(t)
		drain := (k.CPU.Cycles-lastCycles)*power.EnergyPerCyclePJ + stepMS*power.IdleDrainPJPerMS
		lastCycles = k.CPU.Cycles
		charge = min(charge+harvest, cap.CapacityPJ)
		if charge > drain {
			charge -= drain
		} else {
			charge = 0
		}
		if charge <= cap.BrownoutPJ {
			tmpl.Brownout(k, t)
			dark = true
			brownouts++
			fmt.Printf("  brownout at %dms\n", t)
		}
	}

	fmt.Printf("%s under %v on %s power: %d events in %d ms of wear\n",
		app.Title, mode, profile.Kind, events, ms)
	fmt.Printf("  brownouts=%d reboots=%d final-charge=%.1fmJ\n",
		brownouts, reboots, float64(charge)/1e9)
	// A dark kernel holds exactly its FRAM state, so the same reads serve
	// both outcomes.
	st := k.Apps[0]
	fmt.Printf("  dispatches=%d syscalls=%d active-cycles=%d alive=%v\n",
		st.Dispatches, st.Syscalls, st.Cycles, st.Alive)
	for _, v := range st.LogValues {
		fmt.Printf("  log tag=%d value=%d at %dms\n", v.Tag, v.Value, v.AtMS)
	}
	for _, f := range k.Faults {
		fmt.Printf("  FAULT app=%d at=%dms [%v]: %s\n", f.App, f.AtMS, f.Class, f.Reason)
	}
	fmt.Println(" ", buildCounters())
}

// buildCounters renders the process-wide firmware-build and cache counters —
// the same series /metrics exposes, for one-shot CLI output.
func buildCounters() string {
	c := func(name string) uint64 {
		if m := obs.Default.Lookup(name); m != nil {
			return m.Value()
		}
		return 0
	}
	return fmt.Sprintf("firmware builds: %d (%d cache hits); boot templates: %d built (%d cache hits)",
		c(obs.MetricFirmwareBuilds), c(obs.MetricBuildCacheHits),
		c(obs.MetricTemplateBuilds), c(obs.MetricTemplateHits))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "amuletsim:", err)
	os.Exit(1)
}
