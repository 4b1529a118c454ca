package kernel

import (
	"fmt"
	"testing"

	"amuletiso/internal/aft"
	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/cpu"
	"amuletiso/internal/mem"
	"amuletiso/internal/mpu"
)

// buildSynthetic compiles the synthetic benchmark app for the default
// engine (predecode cache, threaded dispatch, superblock JIT) or, with
// cached false, with the decode cache off: the firmware then carries no
// predecoded text and every kernel booted from it runs the live-decode
// oracle.
func buildSynthetic(t *testing.T, cached bool) *aft.Firmware {
	t.Helper()
	defer cpu.SetDecodeCache(true)
	cpu.SetDecodeCache(cached)
	fw, err := aft.Build([]aft.AppSource{apps.Synthetic().AFT()}, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	if (fw.Text != nil) != cached {
		t.Fatalf("decode cache %v: firmware text cache attached = %v", cached, fw.Text != nil)
	}
	return fw
}

// dispatchFingerprint boots a kernel, delivers EvInit, then one (code, arg)
// event under the given watchdog budget, and fingerprints everything the
// engines must agree on: fault log, per-app accounting, CPU totals and the
// PC the delivery stopped at, MPU violation count and the gate counter.
func dispatchFingerprint(fw *aft.Firmware, code, arg uint16, budget uint64) string {
	k := NewSeeded(fw, 7)
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
	k := NewSeeded(fw, 7)
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

// TestKernelEngineMatrix runs the same kernel workload on the default
// engine and on the live-decode oracle, each with certificates on and off,
// and demands identical dispatch results — the kernel-level gate-boundary
// recertification property: the Go-side osPlan() Configure and the gates'
// own MPU register writes both advance the certificate generation, so
// certified execution across gate transitions must be invisible.
func TestKernelEngineMatrix(t *testing.T) {
	defer mem.SetExecCerts(true)
	fwDefault := buildSynthetic(t, true)
	fwOracle := buildSynthetic(t, false)
	if fwDefault.Text.Blocks() == 0 {
		t.Fatal("default firmware has no superblocks")
	}

	for _, ev := range []struct{ code, arg uint16 }{{apps.EvMemOps, 40}, {apps.EvGateOps, 8}} {
		ref := ""
		for _, cfg := range []struct {
			name  string
			fw    *aft.Firmware
			certs bool
		}{
			{"default+certified", fwDefault, true},
			{"default+perword", fwDefault, false},
			{"livedecode+certified", fwOracle, true},
			{"livedecode+perword", fwOracle, false},
		} {
			mem.SetExecCerts(cfg.certs)
			fp := dispatchFingerprint(cfg.fw, ev.code, ev.arg, 50_000_000)
			if ref == "" {
				ref = fp
				continue
			}
			if fp != ref {
				t.Errorf("event %d: %s diverged:\n  want %s\n  got  %s", ev.code, cfg.name, ref, fp)
			}
		}
	}
}

// TestKernelWatchdogBudgetSweep lands the watchdog at every point of a
// dispatch that crosses OS gates — before each PUSH of the gates' R4..R11
// prologues and each MPU register store, which on the default engine fall
// inside or between JIT segments, plus a spread of fixed budgets — and
// demands the default engine dies exactly where the live-decode oracle
// does, with certificates on and off: same stop PC, fault log, cycle totals
// and MPU state.
func TestKernelWatchdogBudgetSweep(t *testing.T) {
	defer mem.SetExecCerts(true)
	fwDefault := buildSynthetic(t, true)
	fwOracle := buildSynthetic(t, false)
	pushes, stores := gateOpsLandings(t, fwOracle)
	// Two pings: each gate saves R4..R11 on entry, and entry and exit each
	// reprogram the MPU.
	if len(pushes) < 16 || len(stores) < 4 {
		t.Fatalf("landing discovery found %d gate PUSHes and %d MPU stores", len(pushes), len(stores))
	}
	budgets := append([]uint64{0, 1, 2, 3, 5, 7, 11, 19, 31, 53, 89, 144, 233, 377,
		610, 987, 1597, 2584, 4181, 6765, 10946, 17711, 28657}, pushes...)
	budgets = append(budgets, stores...)
	for _, b := range budgets {
		mem.SetExecCerts(true)
		want := dispatchFingerprint(fwOracle, apps.EvGateOps, 2, b)
		for _, certs := range []bool{true, false} {
			mem.SetExecCerts(certs)
			for _, cell := range []struct {
				name string
				fw   *aft.Firmware
			}{{"default", fwDefault}, {"livedecode", fwOracle}} {
				if got := dispatchFingerprint(cell.fw, apps.EvGateOps, 2, b); got != want {
					t.Fatalf("budget %d: %s (certs=%v) diverged from the certified oracle\n  want: %s\n  got:  %s",
						b, cell.name, certs, want, got)
				}
			}
		}
	}
}
