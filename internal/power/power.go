// Package power models intermittent energy harvesting for simulated
// devices: deterministic, seeded harvest traces (solar and kinetic profiles
// plus a recorded trace) feeding a supercapacitor whose charge is drained by
// executed cycles and platform idle draw. Fleet scenarios integrate a trace
// against a device's cycle counter; when the charge crosses the brownout
// threshold the device takes a power-loss fault and reboots from its
// FRAM-persistent state once the capacitor recovers.
//
// Everything here is integer picojoules. Floating-point summation order
// would make charge state depend on how a run is segmented (resume points,
// worker counts); integer arithmetic keeps the trace → charge → brownout
// pipeline byte-identical across any segmentation. Harvest is a pure
// function of (profile, seed, millisecond) — no stream state — so a device
// that fast-forwards through an off interval integrates exactly the same
// energy as one stepping through it.
package power

import (
	"fmt"
	"strconv"
	"strings"
)

// Integer-picojoule forms of the internal/energy platform constants
// (energy_test.go cross-checks them against the float originals).
const (
	// EnergyPerCyclePJ is energy.EnergyPerCycleJ in picojoules: 0.8 mA at
	// 3.0 V across 8 MHz is exactly 300 pJ per executed cycle.
	EnergyPerCyclePJ = 300
	// IdleDrainPJPerMS is the platform's baseline draw — the 110 mAh / 3.7 V
	// battery over the 14-day baseline lifetime — in picojoules per
	// millisecond (≈1.21 mW).
	IdleDrainPJPerMS = 1_211_310
)

// Default profile peaks, in picojoules per millisecond (1 mW = 1e6 pJ/ms).
const (
	solarPeakPJPerMS    = 4_000_000 // 4 mW at solar noon
	kineticPeakPJPerMS  = 2_000_000 // 2 mW at full swing
	recordedPeakPJPerMS = 2_000_000 // 2 mW at the recorded trace's maximum
)

// Solar day/night cycle: 20 s of triangular-ramp daylight, 20 s of darkness.
// Short enough that a canonical 60 s fleet scenario crosses night at least
// once and browns out.
const (
	solarCycleMS = 40_000
	solarDayMS   = 20_000
)

// recordedTable is a canned 64-sample harvest trace (500 ms per sample,
// looping) in permille of the profile peak — a wearable moving between
// bright light, shade, and a pocket. The zero stretch forces recovery
// machinery to engage.
var recordedTable = [64]uint64{
	120, 250, 420, 610, 780, 900, 980, 1000,
	970, 890, 760, 600, 430, 280, 150, 60,
	0, 0, 0, 0, 0, 0, 0, 0,
	40, 110, 230, 390, 560, 700, 820, 900,
	950, 1000, 990, 930, 830, 690, 530, 370,
	220, 100, 30, 0, 0, 0, 60, 180,
	340, 520, 680, 810, 910, 970, 1000, 980,
	920, 820, 680, 520, 350, 200, 90, 20,
}

const recordedSampleMS = 500

// Profile selects a harvest model and its peak output.
type Profile struct {
	// Kind is "solar", "kinetic", or "recorded".
	Kind string
	// PeakPJPerMS is the profile's maximum harvest rate.
	PeakPJPerMS uint64
}

// Parse resolves a trace spec of the form "name" or "name:peakMilliwatts"
// (e.g. "solar", "kinetic:3", "recorded:0.5"). An empty spec is an error —
// callers gate the power model on a non-empty spec.
func Parse(spec string) (Profile, error) {
	name, peakStr, hasPeak := strings.Cut(spec, ":")
	var p Profile
	switch name {
	case "solar":
		p = Profile{Kind: "solar", PeakPJPerMS: solarPeakPJPerMS}
	case "kinetic":
		p = Profile{Kind: "kinetic", PeakPJPerMS: kineticPeakPJPerMS}
	case "recorded":
		p = Profile{Kind: "recorded", PeakPJPerMS: recordedPeakPJPerMS}
	default:
		return Profile{}, fmt.Errorf("power: unknown trace %q (want solar, kinetic, or recorded)", name)
	}
	if hasPeak {
		mw, err := strconv.ParseFloat(peakStr, 64)
		// The negated range test rejects NaN too; a peak below 1e-6 mW
		// would round to 0 pJ/ms.
		if err != nil || !(mw > 0 && mw <= 1000) || uint64(mw*1e6) == 0 {
			return Profile{}, fmt.Errorf("power: bad peak %q in trace %q (want milliwatts in [1e-6, 1000])", peakStr, spec)
		}
		p.PeakPJPerMS = uint64(mw * 1e6)
	}
	return p, nil
}

// Trace is a profile bound to a device seed: a pure function from
// milliseconds to harvested picojoules.
type Trace struct {
	p    Profile
	seed uint32
}

// Trace binds the profile to a device seed.
func (p Profile) Trace(seed uint32) Trace { return Trace{p: p, seed: seed} }

// hash is a splitmix64 step over (seed, slot) — the per-slot noise source.
func (t Trace) hash(slot uint64) uint64 {
	x := (uint64(t.seed)+1)<<32 ^ slot
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// HarvestPJ returns the energy harvested during millisecond [ms, ms+1).
func (t Trace) HarvestPJ(ms uint64) uint64 {
	switch t.p.Kind {
	case "solar":
		pos := ms % solarCycleMS
		if pos >= solarDayMS {
			return 0 // night
		}
		// Triangular ramp peaking mid-day, with ±20% cloud noise held for
		// 250 ms slots.
		half := uint64(solarDayMS / 2)
		dist := pos
		if dist > half {
			dist = solarDayMS - pos
		}
		base := t.p.PeakPJPerMS * dist / half
		noise := 80 + t.hash(ms/250)%41 // 80..120 percent
		return base * noise / 100
	case "kinetic":
		// Motion bursts: each second is either still or a swing at 50..100%
		// of peak, 40% duty, decided per-second from the seed.
		sec := ms / 1000
		h := t.hash(sec)
		if h%100 >= 40 {
			return 0
		}
		amp := 50 + (h>>32)%51 // 50..100 percent
		return t.p.PeakPJPerMS * amp / 100
	case "recorded":
		// The canned table, phase-shifted per device so a fleet's recorded
		// devices don't brown out in lockstep.
		idx := (ms/recordedSampleMS + uint64(t.seed)) % uint64(len(recordedTable))
		return t.p.PeakPJPerMS * recordedTable[idx] / 1000
	}
	return 0
}

// HarvestRangePJ integrates the trace over [from, to) milliseconds.
func (t Trace) HarvestRangePJ(from, to uint64) uint64 {
	var sum uint64
	for ms := from; ms < to; ms++ {
		sum += t.HarvestPJ(ms)
	}
	return sum
}

// Supercap sizes the storage element and its thresholds. The device browns
// out when charge falls to BrownoutPJ or below, stays dark while the trace
// recharges the capacitor (an off device draws nothing), and reboots once
// charge reaches RestartPJ — the hysteresis gap prevents boot-loop thrash.
type Supercap struct {
	CapacityPJ uint64 `json:"capacityPJ"`
	BrownoutPJ uint64 `json:"brownoutPJ"`
	RestartPJ  uint64 `json:"restartPJ"`
}

// DefaultSupercap is a 20 µJ-scale wearable buffer (0.02 J): small enough
// that a solar night or a still stretch browns a busy device out within the
// canonical 60-second scenario, with brownout at 20% and restart at 50%.
func DefaultSupercap() Supercap {
	return Supercap{CapacityPJ: 20_000_000_000, BrownoutPJ: 4_000_000_000, RestartPJ: 10_000_000_000}
}
