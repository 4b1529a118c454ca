package torture

import (
	"fmt"

	"amuletiso/internal/abi"
	"amuletiso/internal/aft"
	"amuletiso/internal/cc"
	"amuletiso/internal/engine"
	"amuletiso/internal/kernel"
	"amuletiso/internal/obs"
)

// hostedAppName is the application name hosted cases are built under.
const hostedAppName = "chaos"

// hostedWatchdog is the per-event cycle budget hosted cases run with — far
// above any benign handler, far below the kernel's production default, so
// spin attacks resolve quickly.
const hostedWatchdog = 2_000_000

// hostedModes are the isolation models hosted adversarial cases run under.
var hostedModes = []cc.Mode{cc.ModeMPU, cc.ModeSoftwareOnly}

// layerOfFaultClass maps the kernel's fault attribution onto harness layers.
func layerOfFaultClass(c kernel.FaultClass) Layer {
	switch c {
	case kernel.FaultCheck:
		return LayerCompiler
	case kernel.FaultGate:
		return LayerGate
	case kernel.FaultMPU:
		return LayerMPU
	case kernel.FaultWatchdog:
		return LayerWatchdog
	case kernel.FaultCPU:
		return LayerCPU
	case kernel.FaultBrownout:
		return LayerPower
	}
	return LayerNone
}

// lastFaultClass scans a recorder dump (oldest first) for the most recent
// fault event and decodes its class.
func lastFaultClass(evs []obs.DumpEvent) (kernel.FaultClass, bool) {
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == obs.KindFault.String() {
			return kernel.FaultClass(evs[i].A), true
		}
	}
	return 0, false
}

// executeHosted runs an adversarial handle_event app under the full
// firmware toolchain and kernel, asserting the kernel's own fault
// attribution matches the oracle. This is the path that exercises the layer
// standalone programs cannot reach: the OS gates' pointer-argument
// validation, and the watchdog.
func executeHosted(c *Case, e engine.Engine, out *Outcome) {
	if c.Attack == nil {
		out.fail("bad-case", "hosted case without attack metadata")
		return
	}
	out.Expected = map[string]Layer{}
	out.Observed = map[string]Layer{}
	for _, mode := range hostedModes {
		fw, err := aft.Build([]aft.AppSource{{Name: hostedAppName, Source: c.Source}}, mode)
		if err != nil {
			out.fail("compile-error", fmt.Sprintf("%v: %v", mode, err))
			return
		}
		info := fw.Apps[0]
		lay := appLayout{dataLo: info.DataLo, dataHi: info.DataHi, osCodeLo: fw.Image.MustSym(abi.SymOSCodeLo)}
		// Sym, not MustSym: the shrinker may legitimately produce candidates
		// whose attacked array is gone, and the predicate must see a normal
		// outcome rather than a panic.
		var arrAddr uint16
		if c.Attack.Array != "" {
			if addr, ok := fw.Image.Sym(abi.SymGlobal(hostedAppName, c.Attack.Array)); ok {
				arrAddr = addr
			}
		}
		expected := c.Attack.predict(mode.String(), lay, arrAddr)

		k := kernel.NewBootTemplate(fw).WithEngine(e).NewKernel(uint32(c.Seed) | 1)
		k.WatchdogBudget = hostedWatchdog
		k.Policy = kernel.RestartPolicy{} // first fault is final
		rec := obs.NewRecorder(obs.DefaultRing)
		k.AttachRecorder(rec)
		k.Step() // deliver EvInit — the attack runs here

		observed := LayerNone
		if len(k.Faults) > 0 {
			observed = layerOfFaultClass(k.Faults[0].Class)
			// Second witness: the flight recorder's fault event must
			// attribute the same class the kernel's fault record does — the
			// recorder may never tell a different story than the
			// attribution oracle.
			if cls, ok := lastFaultClass(rec.Dump(0)); !ok {
				out.fail("recorder-mismatch",
					fmt.Sprintf("%v: kernel recorded a fault but the flight recorder holds no fault event", mode))
				return
			} else if cls != k.Faults[0].Class {
				out.fail("recorder-mismatch",
					fmt.Sprintf("%v: flight recorder attributes %v, fault record %v",
						mode, cls, k.Faults[0].Class))
				return
			}
		}
		out.Expected[mode.String()] = expected
		out.Observed[mode.String()] = observed
		if expected == LayerVacuous {
			continue
		}
		if observed != expected {
			reason := "no fault recorded"
			if len(k.Faults) > 0 {
				reason = k.Faults[0].Reason
			}
			out.fail("adversarial-mismatch",
				fmt.Sprintf("%v: %s expected %s, observed %s (%s)",
					mode, c.Attack, expected, observed, reason))
			return
		}
	}
}
