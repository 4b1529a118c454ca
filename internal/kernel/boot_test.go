package kernel

import (
	"testing"

	"amuletiso/internal/aft"
	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
)

func buildTestFW(t *testing.T) *aft.Firmware {
	t.Helper()
	app := apps.Synthetic()
	fw, err := aft.Build([]aft.AppSource{app.AFT()}, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// TestBootTemplateEquivalence is the zero-cost-boot lockdown: a kernel
// cloned from a BootTemplate must be observably identical to one booted by
// NewSeeded — same memory bytes at boot, and the same accounting, bus
// statistics and memory bytes after running a workload.
func TestBootTemplateEquivalence(t *testing.T) {
	fw := buildTestFW(t)
	tmpl := NewBootTemplate(fw)
	if tmpl.Firmware() != fw {
		t.Fatal("template lost its firmware")
	}

	for _, seed := range []uint32{0, 1, 0xDEAD} {
		ka := NewSeeded(fw, seed)
		kb := tmpl.NewKernel(seed)

		memEqual := func(stage string) {
			t.Helper()
			for a := uint32(0); a < 1<<16; a++ {
				if x, y := ka.Bus.Peek8(uint16(a)), kb.Bus.Peek8(uint16(a)); x != y {
					t.Fatalf("seed %d %s: memory differs at 0x%04X: %02X vs %02X",
						seed, stage, a, x, y)
				}
			}
		}
		memEqual("at boot")
		if ka.CPU.Program() != kb.CPU.Program() {
			t.Fatalf("seed %d: kernels do not share the firmware predecode cache", seed)
		}

		na := ka.RunUntil(2_000)
		nb := kb.RunUntil(2_000)
		if na != nb {
			t.Fatalf("seed %d: events delivered %d vs %d", seed, na, nb)
		}
		da, sa, ca := ka.Totals()
		db, sb, cb := kb.Totals()
		if da != db || sa != sb || ca != cb {
			t.Fatalf("seed %d: totals diverged: (%d,%d,%d) vs (%d,%d,%d)",
				seed, da, sa, ca, db, sb, cb)
		}
		if ka.CPU.Cycles != kb.CPU.Cycles || ka.CPU.Insns != kb.CPU.Insns {
			t.Fatalf("seed %d: cpu state diverged", seed)
		}
		ra, wa, fa := ka.Bus.Stats()
		rb, wb, fb := kb.Bus.Stats()
		if ra != rb || wa != wb || fa != fb {
			t.Fatalf("seed %d: bus stats diverged: (%d,%d,%d) vs (%d,%d,%d)",
				seed, ra, wa, fa, rb, wb, fb)
		}
		memEqual("after workload")
	}
}

// TestBootTemplateIsolation checks template clones are independent devices:
// one clone's run must not perturb the template or a sibling clone.
func TestBootTemplateIsolation(t *testing.T) {
	fw := buildTestFW(t)
	tmpl := NewBootTemplate(fw)
	before := *tmpl.ct.Image()

	k1 := tmpl.NewKernel(1)
	k1.RunUntil(2_000)
	if *tmpl.ct.Image() != before {
		t.Fatal("running a clone mutated the boot template")
	}
	k2 := tmpl.NewKernel(1)
	ref := NewSeeded(fw, 1)
	n2, nr := k2.RunUntil(1_000), ref.RunUntil(1_000)
	if n2 != nr || k2.CPU.Cycles != ref.CPU.Cycles {
		t.Fatal("a sibling clone after a dirty run diverged from a fresh boot")
	}
}

// TestRunBatchMatchesRunUntil asserts a RunBatch loop is observably
// identical to one RunUntil call at every batch size, including mid-window
// restarts and periodic re-arming (the fleet batching invariant).
func TestRunBatchMatchesRunUntil(t *testing.T) {
	fw := buildTestFW(t)
	const window = 3_000
	run := func(batch int) (int, uint64, uint64, uint64) {
		k := NewSeeded(fw, 7)
		k.PostPeriodic(0, apps.EvMemOps, 8, 50, 100)
		total := 0
		if batch == 0 {
			total = k.RunUntil(window)
		} else {
			for {
				n, more := k.RunBatch(window, batch)
				total += n
				if !more {
					break
				}
			}
		}
		d, s, c := k.Totals()
		if k.NowMS != window {
			t.Fatalf("batch=%d: NowMS=%d, want %d", batch, k.NowMS, window)
		}
		return total, d, s, c
	}
	n0, d0, s0, c0 := run(0)
	if n0 == 0 {
		t.Fatal("reference run delivered no events")
	}
	for _, batch := range []int{1, 2, 7, 1000} {
		n, d, s, c := run(batch)
		if n != n0 || d != d0 || s != s0 || c != c0 {
			t.Fatalf("batch=%d diverged: events %d/%d dispatches %d/%d syscalls %d/%d cycles %d/%d",
				batch, n, n0, d, d0, s, s0, c, c0)
		}
	}
	// max <= 0 means unbounded: one call drains the window (a zero batch
	// must never report more=true without delivering — the livelock trap).
	k := NewSeeded(fw, 7)
	k.PostPeriodic(0, apps.EvMemOps, 8, 50, 100)
	n, more := k.RunBatch(window, 0)
	if n != n0 || more {
		t.Fatalf("RunBatch(max=0) = (%d, %v), want (%d, false)", n, more, n0)
	}
}

// BenchmarkBoot prices the two boot paths side by side: the full NewSeeded
// sequence (erased-FRAM fill + firmware load) against a template clone, for
// the synthetic app; TemplateChurn prices the template boot of the
// pedometer/hr/clock firmware fleetd churn jobs run.
func BenchmarkBoot(b *testing.B) {
	fw := buildApps(b, "synthetic")
	b.Run("NewSeeded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewSeeded(fw, uint32(i+1))
		}
	})
	tmpl := NewBootTemplate(fw)
	b.Run("Template", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tmpl.NewKernel(uint32(i + 1))
		}
	})
	churn := NewBootTemplate(buildApps(b, "pedometer", "hr", "clock"))
	b.Run("TemplateChurn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			churn.NewKernel(uint32(i + 1))
		}
	})
}
