// Package fleet simulates fleets of independent Amulet devices concurrently:
// the scaling substrate that turns the single-device reproduction into an
// experiment platform. A Scenario describes one device's configuration (app
// set, isolation mode, event schedule, fault-injection knobs) plus the fleet
// shape (device count, fleet seed); a Runner shards the devices over a
// bounded worker pool where each worker owns one kernel at a time.
//
// Three properties make fleets cheap and reproducible:
//
//   - each (app set, mode) pair is compiled and linked exactly once through
//     a BuildCache; devices boot by cloning the shared image bytes into
//     their private bus rather than recompiling;
//   - every device's noise sources derive from a per-device seed obtained by
//     splitmix64 from the fleet seed, so device i's workload is the same no
//     matter which worker runs it, in which order, at which parallelism;
//   - the Report sorts per-device results by device index before computing
//     aggregates, so serialized reports are byte-identical across runs and
//     worker counts.
package fleet

import (
	"context"
	"fmt"
	"runtime"

	"sync"

	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/engine"
	"amuletiso/internal/kernel"
	"amuletiso/internal/mem"
	"amuletiso/internal/obs"
	"amuletiso/internal/power"
)

// ScheduledEvent is one entry of a scenario's event schedule, delivered to
// every device: Code/Arg posted to App at AtMS, re-armed every PeriodMS when
// PeriodMS > 0.
type ScheduledEvent struct {
	AtMS     uint64
	App      int
	Code     uint16
	Arg      uint16
	PeriodMS uint64
}

// Scenario configures a fleet run: what every device runs and how many of
// them to simulate.
type Scenario struct {
	// Name labels the report.
	Name string
	// Apps is the application set each device boots (required).
	Apps []apps.App
	// Mode is the isolation model.
	Mode cc.Mode
	// DurationMS is the virtual wear window per device (required).
	DurationMS uint64
	// Devices is the fleet size (required).
	Devices int
	// FirstDevice offsets this run's device indices: it simulates devices
	// [FirstDevice, FirstDevice+Devices). Per-device seeds depend only on
	// the global index, so disjoint shards of one scenario — run anywhere,
	// at any parallelism — Merge into exactly the union run's report.
	FirstDevice int
	// Seed is the fleet seed; per-device seeds derive from it.
	Seed uint64

	// Events is an optional schedule posted to every device at boot.
	Events []ScheduledEvent
	// ButtonEveryMS injects a button press (cycling buttons 1-3, sequence
	// derived from the device seed) every interval, when > 0.
	ButtonEveryMS uint64
	// FaultEveryMS injects a synthetic fault into FaultApp every interval,
	// when > 0 — the knob that exercises kernel.RestartPolicy at scale.
	FaultEveryMS uint64
	// FaultApp is the app index FaultEveryMS targets.
	FaultApp int
	// Policy overrides the kernel's default restart policy when non-nil.
	Policy *kernel.RestartPolicy
	// WatchdogBudget overrides the kernel's per-event cycle budget when
	// > 0 — the knob watchdog-starvation sweeps use to land the watchdog at
	// arbitrary points of a wear window.
	WatchdogBudget uint64
	// FaultTrace attaches a flight recorder to every device and embeds, in
	// the DeviceResult of a device whose recorder saw a fault, the window of
	// events ending with its last one. It is the only way recorder data
	// reaches a report: apart from those windows, results are the same bytes
	// with or without it.
	FaultTrace bool

	// PowerTrace arms the intermittent-power model with a harvest trace spec
	// (power.Parse grammar, e.g. "solar" or "kinetic:3"). Each device gets a
	// seeded supercapacitor that harvest charges and execution drains;
	// crossing the brownout threshold power-faults the device, which later
	// reboots from its FRAM-persistent state. Empty = stable bench supply.
	PowerTrace string
	// BrownoutEveryMS forces a brownout at every interval boundary instead of
	// modeling charge — the crash-consistency sweep knob. Mutually exclusive
	// with PowerTrace.
	BrownoutEveryMS uint64
	// BrownoutOffMS is how long a forced brownout keeps the device dark
	// before it reboots (default 500 ms). Only meaningful with
	// BrownoutEveryMS.
	BrownoutOffMS uint64

	// Engine selects the execution layers every device boots on. Reports
	// are byte-identical under every engine.
	Engine engine.Engine
}

// Validate rejects scenarios the runner cannot execute. Run and
// RunResumable call it first; a service accepting scenarios calls it at the
// door, so it never acknowledges work that can only fail.
func (sc *Scenario) Validate() error {
	if len(sc.Apps) == 0 {
		return fmt.Errorf("fleet: scenario has no apps")
	}
	for i, a := range sc.Apps {
		for _, b := range sc.Apps[:i] {
			if a.Name == b.Name {
				return fmt.Errorf("fleet: app %q named twice", a.Name)
			}
		}
	}
	if sc.Devices <= 0 {
		return fmt.Errorf("fleet: scenario needs a positive device count (got %d)", sc.Devices)
	}
	if sc.FirstDevice < 0 {
		return fmt.Errorf("fleet: negative first device %d", sc.FirstDevice)
	}
	if sc.DurationMS == 0 {
		return fmt.Errorf("fleet: scenario needs a positive duration")
	}
	if sc.FaultEveryMS > 0 && (sc.FaultApp < 0 || sc.FaultApp >= len(sc.Apps)) {
		return fmt.Errorf("fleet: fault app %d out of range (%d apps)", sc.FaultApp, len(sc.Apps))
	}
	for i, ev := range sc.Events {
		if ev.App < 0 || ev.App >= len(sc.Apps) {
			return fmt.Errorf("fleet: event %d targets app %d, out of range (%d apps)",
				i, ev.App, len(sc.Apps))
		}
	}
	if sc.PowerTrace != "" {
		if _, err := power.Parse(sc.PowerTrace); err != nil {
			return err
		}
		if sc.BrownoutEveryMS > 0 {
			return fmt.Errorf("fleet: PowerTrace and BrownoutEveryMS are mutually exclusive")
		}
	}
	if sc.BrownoutOffMS > 0 && sc.BrownoutEveryMS == 0 {
		return fmt.Errorf("fleet: BrownoutOffMS needs BrownoutEveryMS")
	}
	return nil
}

// Runner executes scenarios over a worker pool. The zero value is usable:
// GOMAXPROCS workers and a private build cache.
type Runner struct {
	// Workers bounds the pool; <= 0 means GOMAXPROCS.
	Workers int
	// Cache is the firmware build cache; nil allocates a private one. Share
	// a cache across runs to reuse builds between scenarios (e.g. the same
	// app set under several modes still builds once per mode).
	Cache *BuildCache

	// arena recycles COW data pages and kernels between devices: finished
	// devices hand their dirty pages and their kernel back, the next boot
	// reuses the kernel and its write-faults the pages. One arena per
	// runner, shared by all workers and across Run calls, so a long soak
	// settles into zero page and kernel allocations per device.
	arenaOnce sync.Once
	arena     *mem.PageArena
}

// pageArena lazily builds the runner's shared page arena.
func (r *Runner) pageArena() *mem.PageArena {
	r.arenaOnce.Do(func() { r.arena = mem.NewPageArena() })
	return r.arena
}

// ArenaStats reports cumulative page recycling traffic (pages handed out,
// pages returned) for the runner's arena. Diagnostics only — never part of
// a Report.
func (r *Runner) ArenaStats() (gets, puts uint64) {
	return r.pageArena().Stats()
}

// workerCount resolves the effective pool size.
func (r *Runner) workerCount() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run simulates the scenario's fleet and aggregates the per-device results.
// It returns early with ctx's error when cancelled.
func (r *Runner) Run(ctx context.Context, sc Scenario) (*Report, error) {
	rep, _, err := r.RunResumable(ctx, sc, nil, nil)
	return rep, err
}

// Run executes the scenario with a default runner (GOMAXPROCS workers,
// private build cache).
func Run(ctx context.Context, sc Scenario) (*Report, error) {
	return (&Runner{}).Run(ctx, sc)
}

// splitmix64 is the SplitMix64 output function: the standard way to expand
// one seed into a stream of decorrelated ones.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeviceSeed derives device i's kernel seed from the fleet seed. The
// derivation is position-based, so a device's workload does not depend on
// which worker simulates it or when.
func DeviceSeed(fleetSeed uint64, device int) uint32 {
	s := uint32(splitmix64(fleetSeed + uint64(device) + 1))
	if s == 0 {
		s = 0xA5A5A5A5
	}
	return s
}

// template builds up front, on the runner's cache, the firmware every
// device shares — one compile+link per (app set, mode) — and the boot
// template every device clones its memory from, bound to the scenario's
// engine. Both are immutable, so workers need no further locking.
func (r *Runner) template(sc *Scenario) (*kernel.BootTemplate, error) {
	cache := r.Cache
	if cache == nil {
		cache = NewBuildCache()
	}
	tmpl, err := cache.Template(sc.Apps, sc.Mode)
	if err != nil {
		return nil, err
	}
	return tmpl.WithEngine(sc.Engine), nil
}

// deviceSim is one device mid-wear-window: the kernel plus the wear-loop
// cursors (injection deadlines, button RNG, delivered-event count). A device
// can stop at any poll of advance, be serialized (DeviceCheckpoint), and
// continue on another runner — the substrate for resumable campaigns. A run
// keeps its devices in one slab (RunResumable), so a device's state,
// power included, costs no allocation of its own.
type deviceSim struct {
	sc     *Scenario
	tmpl   *kernel.BootTemplate
	k      *kernel.Kernel
	device int
	seed   uint32

	events     int
	now        uint64
	nextButton uint64
	nextFault  uint64
	buttonRNG  uint64

	// rec is the device's flight recorder under Scenario.FaultTrace, nil
	// otherwise. It outlives brownouts: each reboot re-attaches it, so the
	// window frozen at the last fault survives the power loss.
	rec *obs.Recorder

	// power is the device's supercapacitor state, kept only when powered
	// is set; on a stable bench supply it stays zero. While the device is
	// dark after a brownout, k stays parked holding only its FRAM state
	// until the reboot.
	powered bool
	power   powerState

	// ledger is the resumable run the device parks snapshots with, nil when
	// it takes none; answered is the last snapshot request it parked for.
	ledger   *campaignState
	answered uint64
}

// dark reports whether the device is browned out, its kernel parked.
func (d *deviceSim) dark() bool { return d.power.off }

// start boots a fresh device into the zero d, at the start of its wear
// window.
func (d *deviceSim) start(sc *Scenario, tmpl *kernel.BootTemplate, arena *mem.PageArena, device int) {
	seed := DeviceSeed(sc.Seed, device)
	mDevicesStarted.Inc()
	k := tmpl.NewKernelArena(seed, arena)
	var rec *obs.Recorder
	if sc.FaultTrace {
		rec = obs.NewRecorder(obs.DefaultRing)
		rec.KeepFaultWindow(faultTraceWindow)
		k.AttachRecorder(rec)
	}
	if sc.Policy != nil {
		k.Policy = *sc.Policy
	}
	if sc.WatchdogBudget > 0 {
		k.WatchdogBudget = sc.WatchdogBudget
	}
	for _, ev := range sc.Events {
		k.PostPeriodic(ev.App, ev.Code, ev.Arg, ev.AtMS, ev.PeriodMS)
	}
	*d = deviceSim{
		sc: sc, tmpl: tmpl, k: k, device: device, seed: seed, rec: rec,
		nextButton: injectStart(sc.ButtonEveryMS),
		nextFault:  injectStart(sc.FaultEveryMS),
		buttonRNG:  uint64(seed),
		powered:    sc.powered(),
	}
	if d.powered {
		d.power = newPowerState(sc, seed)
	}
}

// advance walks the rest of the wear window. It polls between event batches
// and at every injection or power boundary: a cancelled ctx stops it there,
// and a pending snapshot request parks a snapshot there (poll). Stopping
// points are observably free — RunUntil(t1);RunUntil(t2) delivers exactly
// what RunUntil(t2) would — and a cancelled device stays parked between
// event deliveries, so a checkpoint taken there continues it exactly.
func (d *deviceSim) advance(ctx context.Context) error {
	for d.now < d.sc.DurationMS {
		if err := d.poll(ctx); err != nil {
			return err
		}
		next := d.sc.DurationMS
		if d.nextButton < next {
			next = d.nextButton
		}
		if d.nextFault < next {
			next = d.nextFault
		}
		if d.powered && d.power.next < next {
			next = d.power.next
		}
		// A dark device delivers nothing: injection and power cursors still
		// advance through the outage, but the kernel is parked until reboot.
		if !d.dark() {
			for {
				n, more := d.k.RunBatch(next, EventBatch)
				d.events += n
				if !more {
					break
				}
				if err := d.poll(ctx); err != nil {
					return err
				}
			}
		}
		d.now = next
		if d.now == d.nextButton {
			// The press sequence advances whether or not the device is up —
			// the user keeps pressing; a dark device just misses the press.
			d.buttonRNG = splitmix64(d.buttonRNG)
			if !d.dark() {
				d.k.InjectButton(uint16(d.buttonRNG%3) + 1)
			}
			d.nextButton += d.sc.ButtonEveryMS
		}
		if d.now == d.nextFault {
			if !d.dark() {
				d.k.InjectFault(d.sc.FaultApp, "fleet: injected fault")
			}
			d.nextFault += d.sc.FaultEveryMS
		}
		if d.powered && d.now == d.power.next {
			d.powerStep()
		}
	}
	return nil
}

// poll is one of advance's stopping points: it returns ctx's error, and
// otherwise parks a snapshot with the device's run when a cut has asked for
// one since the device's last.
func (d *deviceSim) poll(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if st := d.ledger; st != nil {
		if st.requests.Load() > d.answered {
			d.answered = st.park(d.checkpoint())
		}
	}
	return nil
}

// finished reports whether the device has worn through its whole window.
func (d *deviceSim) finished() bool { return d.now >= d.sc.DurationMS }

// result assembles the DeviceResult of a finished device, its fault lists
// carved from the run's string chunks. A device that wore out its window
// dark (browned out, never recovered) reports its parked kernel's
// FRAM-resident counters. Its fault trace, like any device's, is the window
// frozen at its last recorded fault.
func (d *deviceSim) result(st *campaignState) DeviceResult {
	k := d.k
	dispatches, syscalls, cycles := k.Totals()
	res := DeviceResult{
		Device:     d.device,
		Seed:       d.seed,
		Events:     d.events,
		Dispatches: dispatches,
		Syscalls:   syscalls,
		Cycles:     cycles,
		Insns:      k.CPU.Insns,
		OSCycles:   k.OSCycles,
		Faults:     len(k.Faults),
		Latency:    k.Latency,
	}
	for i := range k.Apps {
		if k.Apps[i].Alive {
			res.AppsAlive++
		}
	}
	if n := len(k.Faults); n > 0 {
		strs := st.carve(2 * n)
		res.FaultReasons, res.FaultClasses = strs[:0:n], strs[n:n:2*n]
	}
	for _, f := range k.Faults {
		res.FaultReasons = append(res.FaultReasons, f.Reason)
		res.FaultClasses = append(res.FaultClasses, f.Class.String())
	}
	if d.rec != nil {
		res.FaultTrace = d.rec.FaultDump()
	}
	res.WeeklyBatteryPct = batteryPct(res.Cycles, d.sc.DurationMS)
	res.ProjectedLifetimeHours = projectedLifetimeHours(res.Cycles, d.sc.DurationMS)
	res.Brownouts = d.power.brownouts
	res.FirstBrownoutMS = d.power.firstBrownoutMS
	mDevicesCompleted.Inc()
	mInstrSimulated.Add(res.Insns)
	mWearMS.Add(d.sc.DurationMS)
	return res
}

// close retires the device's kernel: its dirty COW pages, and the kernel
// itself for the next boot to reuse, go back to the runner's arena. The
// device must not be used afterwards, so callers defer close once. close
// zeroes d, so the run's slab keeps no finished device's recorder or kernel
// reachable.
func (d *deviceSim) close() {
	d.k.Release()
	*d = deviceSim{}
}

// faultTraceWindow is how many flight-recorder events, ending with its last
// fault, a faulting device's DeviceResult carries when Scenario.FaultTrace
// is set.
const faultTraceWindow = 64

// injectStart returns the first firing time of a periodic injection knob, or
// an effectively-never sentinel when the knob is off.
func injectStart(everyMS uint64) uint64 {
	if everyMS == 0 {
		return ^uint64(0)
	}
	return everyMS
}
