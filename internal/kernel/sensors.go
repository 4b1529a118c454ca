package kernel

import "math"

// Sensors is the deterministic synthetic sensor suite standing in for the
// Amulet wristband hardware (accelerometer, optical heart-rate sensor,
// thermistor, photodiode, battery gauge, pedometer hardware register).
//
// Signals are functions of virtual time with a seeded noise term, so every
// run of an experiment sees the identical waveform — essential for
// comparing isolation modes on equal workloads.
//
// The wearer model alternates activity phases: rest, walking, and brisk
// activity, on a fixed cadence. Walking drives the accelerometer at ~2 Hz
// steps and advances the step counter; heart rate follows activity with a
// lag.
type Sensors struct {
	seed uint32
}

// NewSensors returns a sensor suite with the given noise seed.
func NewSensors(seed uint32) *Sensors {
	if seed == 0 {
		seed = 1
	}
	return &Sensors{seed: seed}
}

// Seed returns the suite's noise seed — the value a checkpoint must carry so
// a resumed device reproduces the same waveforms. It is the normalized seed
// (NewSensors maps 0 to 1), so re-booting with it is idempotent.
func (s *Sensors) Seed() uint32 { return s.seed }

// noise returns a small deterministic pseudo-random value in [-n, n],
// keyed by time and stream so different sensors decorrelate.
func (s *Sensors) noise(t uint64, stream uint32, n int) int {
	x := uint32(t)*2654435761 + stream*40503 + s.seed
	x ^= x >> 13
	x *= 1103515245
	x ^= x >> 16
	if n == 0 {
		return 0
	}
	return int(x%uint32(2*n+1)) - n
}

// Activity phases.
const (
	PhaseRest = iota
	PhaseWalk
	PhaseBrisk
)

// phaseLen is the length of one activity phase in ms (5 minutes).
const phaseLen = 5 * 60 * 1000

// Phase returns the wearer's activity phase at time t.
func (s *Sensors) Phase(t uint64) int {
	switch (t / phaseLen) % 4 {
	case 0, 2:
		return PhaseRest
	case 1:
		return PhaseWalk
	default:
		return PhaseBrisk
	}
}

// Accel returns a milli-g sample for axis 0..2 (x, y, z).
func (s *Sensors) Accel(axis int, t uint64) int16 {
	// Gravity mostly on z; gait oscillation at ~2 Hz while moving.
	base := 0
	if axis == 2 {
		base = 1000
	}
	amp := 0
	switch s.Phase(t) {
	case PhaseWalk:
		amp = 260
	case PhaseBrisk:
		amp = 520
	}
	osc := 0
	if amp > 0 {
		phase := 2 * math.Pi * 2.0 * float64(t) / 1000.0 // 2 Hz
		osc = int(float64(amp) * math.Sin(phase+float64(axis)))
	}
	return int16(base + osc + s.noise(t, uint32(axis+1), 30))
}

// HR returns heart rate in bpm, following activity with slow drift.
func (s *Sensors) HR(t uint64) int16 {
	base := 62
	switch s.Phase(t) {
	case PhaseWalk:
		base = 88
	case PhaseBrisk:
		base = 118
	}
	drift := int(6 * math.Sin(2*math.Pi*float64(t)/600000.0))
	return int16(base + drift + s.noise(t, 9, 3))
}

// Temp returns skin temperature in deci-celsius.
func (s *Sensors) Temp(t uint64) int16 {
	return int16(331 + int(4*math.Sin(2*math.Pi*float64(t)/3600000.0)) + s.noise(t, 11, 1))
}

// Light returns ambient light in lux (daily cycle, clipped at night).
func (s *Sensors) Light(t uint64) int16 {
	day := math.Sin(2 * math.Pi * float64(t%86400000) / 86400000.0)
	if day < 0 {
		day = 0
	}
	return int16(int(800*day) + s.noise(t, 13, 20))
}

// Battery returns remaining battery percent, draining linearly over two
// weeks of virtual time.
func (s *Sensors) Battery(t uint64) int16 {
	const lifetimeMS = 14 * 24 * 3600 * 1000
	pct := 100 - int(t*100/lifetimeMS)
	if pct < 0 {
		pct = 0
	}
	return int16(pct)
}

// Steps returns the hardware step-counter register: cumulative steps at
// ~2 Hz during walking and ~2.6 Hz during brisk phases.
func (s *Sensors) Steps(t uint64) uint16 {
	const walkRate = 2    // steps per second while walking
	const briskTenth = 26 // steps per 10 seconds while brisk (2.6 Hz)
	perCycle := uint64(phaseLen/1000*walkRate) + uint64(phaseLen)*briskTenth/10000
	steps := t / (4 * phaseLen) * perCycle
	rem := t % (4 * phaseLen)
	if rem > phaseLen { // walking phase is the second in the cycle
		walk := rem - phaseLen
		if walk > phaseLen {
			walk = phaseLen
		}
		steps += walk / 1000 * walkRate
	}
	if rem > 3*phaseLen { // brisk phase is the fourth
		steps += (rem - 3*phaseLen) * briskTenth / 10000
	}
	return uint16(steps)
}

// Display models the wristband's small matrix display: it records the
// current text rows and counts draw operations, enough for applications to
// be observable in tests and examples. The zero value is a blank display.
type Display struct {
	Rows   map[int]string // nil until the first text
	Clears int
	Draws  int
	Texts  int
}

// Clear blanks the display.
func (d *Display) Clear() {
	clear(d.Rows)
	d.Clears++
}

// Text places a string on a row.
func (d *Display) Text(row int, s string) {
	if d.Rows == nil {
		d.Rows = make(map[int]string)
	}
	d.Rows[row] = s
	d.Texts++
}

// Draw records a glyph draw.
func (d *Display) Draw(x, y int, glyph uint16) {
	d.Draws++
}
