package kernel

import (
	"fmt"
	"testing"

	"amuletiso/internal/aft"
	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/engine"
	"amuletiso/internal/mem"
	"amuletiso/internal/mpu"
)

// buildSynthetic compiles the synthetic benchmark app. The build is
// engine-free: the engine is chosen per kernel at boot.
func buildSynthetic(t *testing.T) *aft.Firmware {
	t.Helper()
	fw, err := aft.Build([]aft.AppSource{apps.Synthetic().AFT()}, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// bootOn boots seed 7 of fw on engine e and checks every field of e reached
// the machine: the shared program (none under NoDecodeCache, its
// handler-free twin under NoThread), the MPU's certifier interfaces (hidden
// under NoCert) and the bus backing (flat under NoCOW).
func bootOn(t *testing.T, fw *aft.Firmware, e engine.Engine) *Kernel {
	t.Helper()
	k := NewBootTemplate(fw).WithEngine(e).NewKernel(7)
	want := fw.Text
	if e.NoThread {
		want = want.Unthreaded()
	}
	if e.NoDecodeCache {
		want = nil
	}
	if k.CPU.Program() != want {
		t.Fatalf("%v: wrong predecoded program attached", e)
	}
	if _, certified := k.Bus.Checker().(*mpu.Unit); certified == e.NoCert {
		t.Fatalf("%v: bus sees the MPU's certifiers = %v", e, certified)
	}
	if flat := k.Bus.DirtyPages() == 1<<16/mem.PageSize; flat != e.NoCOW {
		t.Fatalf("%v: flat bus = %v", e, flat)
	}
	return k
}

// dispatchFingerprint boots a kernel on e, delivers EvInit, then one
// (code, arg) event under the given watchdog budget, and fingerprints
// everything the engines must agree on: fault log, per-app accounting, CPU
// totals and the PC the delivery stopped at, MPU violation count and the
// gate counter.
func dispatchFingerprint(t *testing.T, fw *aft.Firmware, e engine.Engine, code, arg uint16, budget uint64) string {
	k := bootOn(t, fw, e)
	k.Policy = RestartPolicy{} // first fault is final: keep outcomes simple
	k.Step()                   // EvInit
	k.WatchdogBudget = budget
	k.Post(0, code, arg, 0)
	k.Step()
	fp := fmt.Sprintf("cycles=%d insns=%d pc=%04x gates=%d viol=%d dispatches=%d appcycles=%d alive=%v",
		k.CPU.Cycles, k.CPU.Insns, k.CPU.PC(), k.GateCount(), k.MPU.Violations(),
		k.Apps[0].Dispatches, k.Apps[0].Cycles, k.Apps[0].Alive)
	for _, f := range k.Faults {
		fp += fmt.Sprintf(";fault(%d,%d,%s,%v)", f.App, f.AtMS, f.Reason, f.Class)
	}
	return fp
}

// gateOpsLandings runs one EvGateOps delivery on fw with an access profiler
// attached and returns, as cycle offsets from the dispatch's first
// instruction, the start of every PUSH Rn executed inside an OS gate and of
// every MPU register store. A watchdog budget equal to an offset stops the
// delivery exactly before that instruction.
func gateOpsLandings(t *testing.T, fw *aft.Firmware) (pushes, mpuStores []uint64) {
	t.Helper()
	lo, hi := fw.Image.MustSym("os.gate.amulet_get_time"), fw.Image.MustSym("os.gate.fail")
	k := bootOn(t, fw, engine.Engine{NoDecodeCache: true})
	k.Policy = RestartPolicy{}
	k.Step() // EvInit
	k.Post(0, apps.EvGateOps, 2, 0)
	started := false
	var start uint64
	k.Bus.OnAccess = func(a mem.Access) {
		now := k.CPU.Cycles
		switch {
		case a.Kind == mem.Execute && a.Addr == k.FW.Dispatch && !started:
			started, start = true, now
		case !started:
		case a.Kind == mem.Execute && a.Addr >= lo && a.Addr < hi && a.Addr == k.CPU.PC() &&
			a.Value&0xFFF0 == 0x1200: // the opcode word of PUSH.W Rn
			pushes = append(pushes, now-start)
		case a.Kind == mem.Write && a.Addr >= mpu.RegLo && a.Addr < mpu.RegHi:
			mpuStores = append(mpuStores, now-start)
		}
	}
	k.Step()
	k.Bus.OnAccess = nil
	if len(k.Faults) != 0 {
		t.Fatalf("landing discovery faulted: %+v", k.Faults)
	}
	return pushes, mpuStores
}

// TestKernelEngineMatrix runs the same kernel workload in every
// engine.Matrix cell and demands identical dispatch results — among them
// the kernel-level gate-boundary recertification property: the Go-side
// osPlan() Configure and the gates' own MPU register writes both advance the
// certificate generation, so certified execution across gate transitions
// must be invisible.
func TestKernelEngineMatrix(t *testing.T) {
	fw := buildSynthetic(t)
	for _, ev := range []struct{ code, arg uint16 }{{apps.EvMemOps, 40}, {apps.EvGateOps, 8}} {
		want := dispatchFingerprint(t, fw, engine.Engine{}, ev.code, ev.arg, 50_000_000)
		for _, e := range engine.Matrix[1:] {
			t.Run(fmt.Sprintf("ev%d/%v", ev.code, e), func(t *testing.T) {
				t.Parallel()
				if got := dispatchFingerprint(t, fw, e, ev.code, ev.arg, 50_000_000); got != want {
					t.Errorf("diverged:\n  want %s\n  got  %s", want, got)
				}
			})
		}
	}
}

// TestKernelWatchdogBudgetSweep lands the watchdog at every point of a
// dispatch that crosses OS gates — before each PUSH of the gates' R4..R11
// prologues and each MPU register store, which on the default engine fall
// inside or between JIT segments, plus a spread of fixed budgets — and
// demands every engine.Matrix cell dies exactly where the live-decode
// oracle does: same stop PC, fault log, cycle totals and MPU state.
func TestKernelWatchdogBudgetSweep(t *testing.T) {
	fw := buildSynthetic(t)
	pushes, stores := gateOpsLandings(t, fw)
	// Two pings: each gate saves R4..R11 on entry, and entry and exit each
	// reprogram the MPU.
	if len(pushes) < 16 || len(stores) < 4 {
		t.Fatalf("landing discovery found %d gate PUSHes and %d MPU stores", len(pushes), len(stores))
	}
	budgets := append([]uint64{0, 1, 2, 3, 5, 7, 11, 19, 31, 53, 89, 144, 233, 377,
		610, 987, 1597, 2584, 4181, 6765, 10946, 17711, 28657}, pushes...)
	budgets = append(budgets, stores...)
	want := make([]string, len(budgets))
	for i, b := range budgets {
		want[i] = dispatchFingerprint(t, fw, engine.Engine{NoDecodeCache: true}, apps.EvGateOps, 2, b)
	}
	for _, e := range engine.Matrix {
		t.Run(e.String(), func(t *testing.T) {
			t.Parallel()
			for i, b := range budgets {
				if got := dispatchFingerprint(t, fw, e, apps.EvGateOps, 2, b); got != want[i] {
					t.Fatalf("budget %d diverged from the live-decode oracle\n  want: %s\n  got:  %s",
						b, want[i], got)
				}
			}
		})
	}
}
