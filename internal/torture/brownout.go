package torture

import (
	"encoding/json"
	"fmt"

	"amuletiso/internal/aft"
	"amuletiso/internal/engine"
	"amuletiso/internal/kernel"
)

// Brownout cases are differential crash-consistency campaigns: a hosted
// adversarial app runs under the full kernel, power is cut at a
// seed-determined virtual time, and the persistent state machine is asserted
// two ways. First, the live kernel is browned out and rebooted in place, and
// its checkpoint after each step must be byte-identical (as canonical JSON)
// to the pure pipeline — Checkpoint → PersistentCut → RebootImage; any
// divergence is attributed to the state section that leaked (pages, cpu,
// queue, ...).
// Second, the kernel's own fault log must attribute the power loss to the
// brownout class, feeding the same Expected/Observed layer oracle the
// adversarial campaigns use. Two rounds run per mode, so the second brownout
// hits a device that already rebooted once.

// brownoutRounds is how many consecutive power-loss cycles each mode takes.
const brownoutRounds = 2

// brownoutOffMS is how long each brownout keeps the case's device dark.
const brownoutOffMS = 500

// executeBrownout runs one crash-consistency case across the hosted mode
// matrix.
func executeBrownout(c *Case, e engine.Engine, out *Outcome) {
	out.Expected = map[string]Layer{}
	out.Observed = map[string]Layer{}
	// Seed-determined first cut point, at a coarse boundary so some EvInit
	// work has happened but the queue is usually non-trivial.
	cutMS := 500 * (1 + c.Seed%8) // 500..4000 ms
	for _, mode := range hostedModes {
		fw, err := aft.Build([]aft.AppSource{{Name: hostedAppName, Source: c.Source}}, mode)
		if err != nil {
			out.fail("compile-error", fmt.Sprintf("%v: %v", mode, err))
			return
		}
		tmpl := kernel.NewBootTemplate(fw).WithEngine(e)
		k := tmpl.NewKernel(uint32(c.Seed) | 1)
		k.WatchdogBudget = hostedWatchdog
		// Restart-friendly policy: the attack's fault must not permanently
		// kill the app, or the post-reboot kernel has nothing left to run.
		k.Policy = kernel.RestartPolicy{MaxFaults: 3, BackoffMS: 250}

		at := cutMS
		for round := 0; round < brownoutRounds; round++ {
			k.RunUntil(at)
			cut := tmpl.PersistentCut(tmpl.Checkpoint(k), at)
			restart := at + brownoutOffMS
			img := tmpl.RebootImage(cut, restart)
			tmpl.Brownout(k, at)
			if section, diff := diverges(cut, tmpl.Checkpoint(k)); section != "" {
				out.fail("crash-divergence/"+section,
					fmt.Sprintf("%v round %d: browned-out kernel diverges from the persistent cut in %s: %s",
						mode, round, section, diff))
				return
			}
			tmpl.Reboot(k, restart)
			if section, diff := diverges(img, tmpl.Checkpoint(k)); section != "" {
				out.fail("crash-divergence/"+section,
					fmt.Sprintf("%v round %d: rebooted kernel diverges from the persistent state machine in %s: %s",
						mode, round, section, diff))
				return
			}
			// The rebooted device must make progress: its EvInit queue (one
			// event per surviving app) has to deliver.
			alive := 0
			for _, a := range img.Apps {
				if a.Alive {
					alive++
				}
			}
			if n := k.RunUntil(restart); alive > 0 && n == 0 {
				out.fail("reboot-dead",
					fmt.Sprintf("%v round %d: %d apps survived the brownout but none re-initialized", mode, round, alive))
				return
			}
			at = restart + cutMS
		}

		// Attribution oracle: every fault the power model dealt must carry
		// the brownout class, and the newest one attributes to LayerPower.
		out.Expected[mode.String()] = LayerPower
		observed := LayerNone
		for _, f := range k.Faults {
			if f.App == -1 {
				observed = layerOfFaultClass(f.Class)
			}
		}
		out.Observed[mode.String()] = observed
		if observed != LayerPower {
			out.fail("brownout-attribution",
				fmt.Sprintf("%v: power-loss faults attribute to %s, want %s", mode, observed, LayerPower))
			return
		}
	}
}

// diverges compares two checkpoints as canonical JSON and, when they differ,
// names the first state section that does, or "" when identical. Sections
// only attribute a difference: an empty and a nil queue encode identically
// inside a checkpoint, so they are not one.
func diverges(want, got *kernel.Checkpoint) (section, diff string) {
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(wj) == string(gj) {
		return "", ""
	}
	check := func(name string, a, b any) bool {
		if section != "" {
			return false
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			section = name
			diff = fmt.Sprintf("want %s, got %s", clip(string(aj)), clip(string(bj)))
			return true
		}
		return false
	}
	check("pages", want.Pages, got.Pages)
	check("cpu", want.CPU, got.CPU)
	check("mpu", want.MPU, got.MPU)
	check("queue", want.Queue, got.Queue)
	check("apps", want.Apps, got.Apps)
	check("fault-log", want.Faults, got.Faults)
	check("display", want.Display, got.Display)
	if section == "" {
		// Catch-all over the scalar accounting (seq, rng, odometers, ...).
		check("accounting", want, got)
	}
	return section, diff
}

// clip bounds divergence diagnostics to something readable.
func clip(s string) string {
	const max = 200
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}
