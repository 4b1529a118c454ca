package kernel

import (
	"bytes"
	"testing"

	"amuletiso/internal/aft"
	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/mem"
	"amuletiso/internal/obs"
)

// buildApps links the named bundled apps under the MPU hybrid.
func buildApps(tb testing.TB, names ...string) *aft.Firmware {
	tb.Helper()
	var srcs []aft.AppSource
	for _, n := range names {
		a, ok := apps.ByName(n)
		if !ok {
			tb.Fatalf("no app %q", n)
		}
		srcs = append(srcs, a.AFT())
	}
	fw, err := aft.Build(srcs, cc.ModeMPU)
	if err != nil {
		tb.Fatal(err)
	}
	return fw
}

// bootFirmwares are the firmwares the boot-cost tests price: the one-app
// synthetic benchmark, and the three-app pedometer/hr/clock set fleetd
// churn jobs boot.
var bootFirmwares = []struct {
	name string
	apps []string
}{
	{"synthetic", []string{"synthetic"}},
	{"pedometer-hr-clock", []string{"pedometer", "hr", "clock"}},
}

// TestTemplateBootAllocs guards the one-allocation boot: a kernel booted
// from a template is a single struct holding its CPU, MPU, bus, devices,
// display, sensors, app states and boot-time event queue, bound to the
// template's shared device layout and the firmware's code watch. With
// tracing armed (AMULET_OBS_TRACE=1, the CI race leg) the flight recorder
// adds three, which the bound admits. The fault log is inline too: a boot
// followed by the seven brownout and reboot cycles a fleetd churn device
// goes through (tracing disarmed, so reboots attach no recorder) stays
// within the same bound.
func TestTemplateBootAllocs(t *testing.T) {
	const maxAllocs = 4
	for _, f := range bootFirmwares {
		tmpl := NewBootTemplate(buildApps(t, f.apps...))
		seed := uint32(0)
		got := testing.AllocsPerRun(200, func() {
			seed++
			tmpl.NewKernel(seed)
		})
		if got > maxAllocs {
			t.Errorf("%s: template boot costs %.1f allocations, want <= %d", f.name, got, maxAllocs)
		}

		tracing := obs.TracingEnabled()
		obs.SetTracing(false)
		got = testing.AllocsPerRun(200, func() {
			seed++
			k := tmpl.NewKernel(seed)
			for at := uint64(400); at < 3000; at += 400 {
				tmpl.Brownout(k, at)
				tmpl.Reboot(k, at+100)
			}
		})
		obs.SetTracing(tracing)
		if got > maxAllocs {
			t.Errorf("%s: boot and 7 brownouts cost %.1f allocations, want <= %d", f.name, got, maxAllocs)
		}
	}
}

// TestMachineReusedAcrossTemplates is the machine pool's differential:
// kernels released on one template — one browned out, rebooted and
// checkpointed, one resumed from that checkpoint — and reused on another
// must run exactly as freshly allocated kernels on the second template,
// compared as checkpoint JSON after the same script. Both directions run, so
// machines move from one app to three and from three to one.
func TestMachineReusedAcrossTemplates(t *testing.T) {
	syn := NewBootTemplate(buildApps(t, "synthetic"))
	churn := NewBootTemplate(buildApps(t, "pedometer", "hr", "clock"))
	script := func(tmpl *BootTemplate, arena *mem.PageArena) (k, resumed *Kernel, ck []byte) {
		k = tmpl.NewKernelArena(11, arena)
		if tmpl == syn {
			k.PostPeriodic(0, apps.EvMemOps, 8, 50, 100)
		}
		k.RunUntil(700)
		k.InjectButton(2)
		tmpl.Brownout(k, 800)
		tmpl.Reboot(k, 900)
		k.RunUntil(1600)
		resumed, err := tmpl.Resume(tmpl.Checkpoint(k), arena)
		if err != nil {
			t.Fatal(err)
		}
		resumed.RunUntil(2500)
		return k, resumed, ckJSON(t, tmpl.Checkpoint(resumed))
	}
	for _, pair := range [][2]*BootTemplate{{syn, churn}, {churn, syn}} {
		from, to := pair[0], pair[1]
		arena := mem.NewPageArena()
		a1, a2, _ := script(from, arena)
		a1.Release()
		a2.Release()

		_, _, want := script(to, nil)
		b1, b2, got := script(to, arena)
		if b1 != a2 || b2 != a1 {
			t.Fatal("boots did not reuse the released machines")
		}
		if !bytes.Equal(got, want) {
			t.Errorf("reused machines diverge from fresh boots:\n got %s\nwant %s", got, want)
		}
	}
}
