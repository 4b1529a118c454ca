package fleet

import (
	"amuletiso/internal/kernel"
	"amuletiso/internal/power"
)

// This file wires the intermittent-power model into the device loop. A
// powered device carries a supercapacitor whose charge is integrated at
// fixed PowerCheckMS boundaries of virtual time: harvest from the device's
// seeded trace, drain from executed cycles (power.EnergyPerCyclePJ) plus the
// platform's idle draw. When charge falls to the brownout threshold the
// device takes a power-loss fault in place (kernel.BootTemplate.Brownout):
// its volatile state is dropped, its volatile COW pages go back to the
// arena, and the kernel sits parked and dark — harvesting, drawing nothing —
// until the capacitor recovers to the restart threshold, when the same
// kernel reboots in place (BootTemplate.Reboot). Neither step builds a
// kernel or copies more than the pages power loss touches. A campaign cut of
// a dark device still carries the FRAM state as a kernel.Checkpoint
// (PowerCheckpoint.Cut) — the parked kernel's own checkpoint, which is the
// PersistentCut oracle's bytes.
//
// All charge arithmetic is integer picojoules and happens only at the fixed
// boundaries, so a device browns out at exactly the same virtual millisecond
// no matter how the wear window is segmented, how many workers run the
// fleet, or how often the campaign is checkpointed and resumed.

// PowerCheckMS is the charge-integration quantum: the supercapacitor state
// is updated, and brownout/restart decisions taken, every this many virtual
// milliseconds. Fixed (never scenario-tunable) so power event times are a
// pure function of the device, not of run segmentation.
const PowerCheckMS = 50

// defaultForcedOffMS is how long a forced brownout (Scenario.BrownoutEveryMS)
// keeps the device dark when the scenario leaves BrownoutOffMS zero.
const defaultForcedOffMS = 500

// powered reports whether this scenario models power for its devices.
func (sc *Scenario) powered() bool {
	return sc.PowerTrace != "" || sc.BrownoutEveryMS > 0
}

// powerState is one device's supercapacitor and brownout bookkeeping.
type powerState struct {
	trace  power.Trace
	traced bool // false in forced-interval mode
	cap    power.Supercap

	chargePJ   uint64
	lastMS     uint64 // virtual time of the last charge integration
	lastCycles uint64 // CPU cycle odometer at the last integration
	next       uint64 // next power event: integration boundary, forced brownout, or forced restart
	offMS      uint64 // forced-mode dark interval

	// off marks the device dark: its kernel is parked after a brownout and
	// delivers nothing until the reboot.
	off             bool
	brownouts       int
	firstBrownoutMS uint64
}

// newPowerState builds the boot-time power state for a device. The scenario
// must already be validated (a non-empty PowerTrace parses).
func newPowerState(sc *Scenario, seed uint32) powerState {
	if sc.BrownoutEveryMS > 0 {
		offMS := sc.BrownoutOffMS
		if offMS == 0 {
			offMS = defaultForcedOffMS
		}
		return powerState{next: sc.BrownoutEveryMS, offMS: offMS}
	}
	prof, _ := power.Parse(sc.PowerTrace)
	cap := power.DefaultSupercap()
	return powerState{
		trace:    prof.Trace(seed),
		traced:   true,
		cap:      cap,
		chargePJ: cap.CapacityPJ, // boots with a full capacitor
		next:     PowerCheckMS,
	}
}

// powerStep handles the power event due at d.now (== p.next): charge
// integration and brownout in trace mode, the scripted fault/restart pair in
// forced mode. The kernel is parked between events when this runs — the
// checkpoint boundary brownouts require.
func (d *deviceSim) powerStep() {
	p := &d.power
	t := d.now
	if !p.traced {
		if p.off {
			d.powerReboot(t)
			return
		}
		d.powerBrownout(t)
		p.next = t + p.offMS
		return
	}

	if p.off {
		// Dark device: harvest-only, no draw. Reboot once the capacitor
		// clears the restart threshold (hysteresis above brownout).
		p.chargePJ += p.trace.HarvestRangePJ(p.lastMS, t)
		if p.chargePJ > p.cap.CapacityPJ {
			p.chargePJ = p.cap.CapacityPJ
		}
		p.lastMS = t
		p.next = t + PowerCheckMS
		if p.chargePJ >= p.cap.RestartPJ {
			d.powerReboot(t)
		}
		return
	}

	cycles := d.k.CPU.Cycles
	drain := (cycles-p.lastCycles)*power.EnergyPerCyclePJ + (t-p.lastMS)*power.IdleDrainPJPerMS
	p.chargePJ += p.trace.HarvestRangePJ(p.lastMS, t)
	if p.chargePJ > p.cap.CapacityPJ {
		p.chargePJ = p.cap.CapacityPJ
	}
	if p.chargePJ <= drain {
		p.chargePJ = 0
	} else {
		p.chargePJ -= drain
	}
	p.lastMS, p.lastCycles = t, cycles
	p.next = t + PowerCheckMS
	mChargePJ.Set(int64(p.chargePJ))
	if p.chargePJ <= p.cap.BrownoutPJ {
		d.powerBrownout(t)
	}
}

// powerBrownout kills the device's power at time t, in place: the kernel
// drops its volatile state (volatile COW pages go straight back to the
// arena) and stays parked with its FRAM state for the eventual reboot.
func (d *deviceSim) powerBrownout(t uint64) {
	p := &d.power
	d.tmpl.Brownout(d.k, t)
	p.off = true
	p.brownouts++
	if p.brownouts == 1 {
		p.firstBrownoutMS = t
		mFirstBrownout.Observe(t)
	}
	mBrownouts.Inc()
}

// powerReboot brings the parked device back at time t: the OS boot path
// re-initializes volatile state in place, surviving apps re-init, and the
// scenario's event schedule is re-installed relative to the reboot.
func (d *deviceSim) powerReboot(t uint64) {
	p := &d.power
	k := d.k
	d.tmpl.Reboot(k, t)
	if d.rec != nil {
		k.AttachRecorder(d.rec)
	}
	for _, ev := range d.sc.Events {
		k.PostPeriodic(ev.App, ev.Code, ev.Arg, ev.AtMS, ev.PeriodMS)
	}
	p.off = false
	p.lastMS, p.lastCycles = t, k.CPU.Cycles
	if p.traced {
		p.next = t + PowerCheckMS
	} else {
		p.next = t + d.sc.BrownoutEveryMS
	}
	mReboots.Inc()
}

// PowerCheckpoint serializes a device's powerState for resumable campaigns.
// Cut is non-nil exactly when the device is parked dark; the sibling kernel
// checkpoint is nil in that case.
type PowerCheckpoint struct {
	ChargePJ        uint64             `json:"chargePJ"`
	LastMS          uint64             `json:"lastMS"`
	LastCycles      uint64             `json:"lastCycles,omitempty"`
	Next            uint64             `json:"next"`
	Off             bool               `json:"off,omitempty"`
	Brownouts       int                `json:"brownouts,omitempty"`
	FirstBrownoutMS uint64             `json:"firstBrownoutMS,omitempty"`
	Cut             *kernel.Checkpoint `json:"cut,omitempty"`
}

// checkpoint serializes the power state; cut is the parked kernel's
// checkpoint while the device is dark, nil otherwise.
func (p *powerState) checkpoint(cut *kernel.Checkpoint) *PowerCheckpoint {
	return &PowerCheckpoint{
		ChargePJ:        p.chargePJ,
		LastMS:          p.lastMS,
		LastCycles:      p.lastCycles,
		Next:            p.next,
		Off:             p.off,
		Brownouts:       p.brownouts,
		FirstBrownoutMS: p.firstBrownoutMS,
		Cut:             cut,
	}
}

// resumePowerState rebuilds a powerState from its checkpoint for a device of
// the given scenario and seed.
func resumePowerState(sc *Scenario, seed uint32, pc *PowerCheckpoint) powerState {
	p := newPowerState(sc, seed)
	p.chargePJ = pc.ChargePJ
	p.lastMS = pc.LastMS
	p.lastCycles = pc.LastCycles
	p.next = pc.Next
	p.off = pc.Off
	p.brownouts = pc.Brownouts
	p.firstBrownoutMS = pc.FirstBrownoutMS
	return p
}
