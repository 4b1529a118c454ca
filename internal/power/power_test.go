package power

import (
	"math"
	"testing"

	"amuletiso/internal/energy"
)

// TestEnergyPerCycleMatchesFloatModel pins the integer picojoule constant to
// the float model in internal/energy: the fleet's charge arithmetic and the
// ARP battery math must describe the same device.
func TestEnergyPerCycleMatchesFloatModel(t *testing.T) {
	want := energy.EnergyPerCycleJ * 1e12
	if math.Abs(float64(EnergyPerCyclePJ)-want) > 1e-6 {
		t.Fatalf("EnergyPerCyclePJ = %d, want %g (energy.EnergyPerCycleJ in pJ)", EnergyPerCyclePJ, want)
	}
}

// TestIdleDrainMatchesBaselineLifetime pins the idle drain to the paper's
// baseline: a full battery at idle drain must last the 14-day baseline
// lifetime, to within a part in a thousand of the float model.
func TestIdleDrainMatchesBaselineLifetime(t *testing.T) {
	baselineMS := energy.BaselineLifetimeDays * 24 * 3600 * 1000
	want := energy.BatteryCapacityJ * 1e12 / baselineMS
	got := float64(IdleDrainPJPerMS)
	if math.Abs(got-want)/want > 1e-3 {
		t.Fatalf("IdleDrainPJPerMS = %d, want about %.0f (capacity over %g days)",
			IdleDrainPJPerMS, want, energy.BaselineLifetimeDays)
	}
}

// TestHarvestRangeSegmentationInvariant is the property the fleet's
// determinism rests on: integrating a harvest trace over [a, c) must equal
// the sum over [a, b) and [b, c) for every split — the trace is a pure
// function of time, never of how a run was segmented.
func TestHarvestRangeSegmentationInvariant(t *testing.T) {
	for _, spec := range []string{"solar", "kinetic", "recorded", "solar:2.5", "kinetic:0.9"} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, seed := range []uint32{0, 1, 99} {
			tr := p.Trace(seed)
			const a, c = 19_950, 21_300
			whole := tr.HarvestRangePJ(a, c)
			for _, b := range []uint64{a, a + 1, a + 50, a + 777, c - 1, c} {
				if got := tr.HarvestRangePJ(a, b) + tr.HarvestRangePJ(b, c); got != whole {
					t.Fatalf("%s seed=%d split at %d: %d + split != %d", spec, seed, b, got, whole)
				}
			}
		}
	}
}

// TestHarvestDeterministicPerSeed: same (profile, seed, window) always
// integrates to the same charge; different seeds decorrelate.
func TestHarvestDeterministicPerSeed(t *testing.T) {
	p, err := Parse("kinetic")
	if err != nil {
		t.Fatal(err)
	}
	a := p.Trace(7).HarvestRangePJ(0, 30_000)
	if b := p.Trace(7).HarvestRangePJ(0, 30_000); b != a {
		t.Fatalf("same seed harvested %d then %d", a, b)
	}
	if b := p.Trace(8).HarvestRangePJ(0, 30_000); b == a {
		t.Fatal("different seeds harvested identically (no decorrelation)")
	}
}

// TestSolarNightIsDark: the solar profile's night half must harvest nothing —
// the window that guarantees a brownout for any realistic load.
func TestSolarNightIsDark(t *testing.T) {
	p, err := Parse("solar")
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Trace(3)
	if got := tr.HarvestRangePJ(20_000, 40_000); got != 0 {
		t.Fatalf("solar night harvested %d pJ, want 0", got)
	}
	if got := tr.HarvestRangePJ(0, 20_000); got == 0 {
		t.Fatal("solar day harvested nothing")
	}
}

// TestParseRejectsBadSpecs covers the validation surface the Scenario, the
// CLI flags and fleetd's powerTrace job field rely on: NaN and peaks that
// round to 0 pJ/ms are rejected like any other out-of-range peak.
func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"", "wind", "solar:", "solar:0", "solar:-1", "solar:1001", "solar:xyz",
		"solar:NaN", "kinetic:nan", "recorded:+Inf", "kinetic:1e-7", "solar:0x1p-30"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	p, err := Parse("recorded:5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != "recorded" || p.PeakPJPerMS != 5_000_000 {
		t.Fatalf("recorded:5 parsed to %+v", p)
	}
}

// FuzzParse: Parse never panics, and every spec it accepts has a peak in
// (0, 1e9] pJ/ms — the range HarvestPJ's arithmetic is sized for.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{"solar", "kinetic:3", "recorded:0.5", "solar:NaN", "kinetic:1e-7", "solar:1000", "solar:1e-6"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err == nil && (p.PeakPJPerMS == 0 || p.PeakPJPerMS > 1e9) {
			t.Fatalf("Parse(%q) accepted peak %d pJ/ms", spec, p.PeakPJPerMS)
		}
	})
}

// TestDefaultSupercapHysteresis: the thresholds must order brownout <
// restart < capacity, or a device could oscillate or never reboot.
func TestDefaultSupercapHysteresis(t *testing.T) {
	c := DefaultSupercap()
	if !(c.BrownoutPJ < c.RestartPJ && c.RestartPJ < c.CapacityPJ) {
		t.Fatalf("supercap thresholds out of order: %+v", c)
	}
}
