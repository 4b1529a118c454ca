// Package kernel implements the AmuletOS analogue: an event-driven scheduler
// that drives application state machines on the simulated MCU, the OS API
// services behind the AFT-generated gates, deterministic sensor and display
// models, per-app accounting, and fault handling with a restart policy (the
// paper's §5 "more robust error handling" extension).
//
// Control flow: the kernel (Go side) owns the machine between events. To
// deliver an event it loads the current app's MPU plan and stack into the
// os.var.* block, points the CPU at the AFT's dispatch veneer and lets the
// simulated CPU run — the veneer performs the real (cycle-charged) stack and
// MPU switches, calls the app handler, and yields back. API calls made by
// the handler run through the AFT gates, which transfer to Go services via
// the syscall port.
package kernel

import (
	"fmt"

	"amuletiso/internal/abi"
	"amuletiso/internal/aft"
	"amuletiso/internal/cc"
	"amuletiso/internal/cpu"
	"amuletiso/internal/engine"
	"amuletiso/internal/isa"
	"amuletiso/internal/mem"
	"amuletiso/internal/mpu"
	"amuletiso/internal/obs"
)

// CyclesPerMS converts active CPU cycles to milliseconds (8 MHz MCLK, the
// MSP430FR5969's FRAM-friendly operating point).
const CyclesPerMS = 8000

// DispatchModelCycles is the modeled cost of the Go-side scheduler work
// (event queue pop, state lookup) that the real AmuletOS would execute as
// code. It is charged per dispatched event in every mode, so it cancels out
// of isolation-overhead comparisons.
const DispatchModelCycles = 40

// Event is one queued deliverable.
type Event struct {
	Due    uint64 // ms of virtual time
	App    int    // destination app index
	Code   uint16 // abi.Ev*
	Arg    uint16
	Period uint64 // ms; >0 reschedules after delivery
	seq    uint64
	// postCycles is the CPU cycle count when the event was enqueued — the
	// anchor for the post→dispatch latency histogram.
	postCycles uint64
}

// eventQueue is a typed binary min-heap of events ordered by (Due, seq) —
// the same invariants container/heap maintained, without the boxing.
type eventQueue []Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) less(i, j int) bool {
	if q[i].Due != q[j].Due {
		return q[i].Due < q[j].Due
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e Event) {
	h := append(*q, e)
	*q = h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() Event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < n && h.less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// FaultClass attributes a fault to the isolation layer that raised it —
// the attribution adversarial harnesses (internal/torture) assert against.
type FaultClass int

// Fault classes.
const (
	FaultOther    FaultClass = iota // unclassified (unexpected stop reasons)
	FaultCheck                      // compiler-inserted check hit the app's fault stub
	FaultGate                       // OS gate rejected a pointer argument
	FaultMPU                        // hardware MPU segment violation
	FaultCPU                        // decode/execution fault (no protection involved)
	FaultWatchdog                   // event handler exceeded its cycle budget
	FaultInjected                   // synthetic fault from InjectFault
	FaultBrownout                   // power loss: supply fell below the brownout threshold
)

// String names the fault class.
func (c FaultClass) String() string {
	switch c {
	case FaultCheck:
		return "check"
	case FaultGate:
		return "gate"
	case FaultMPU:
		return "mpu"
	case FaultCPU:
		return "cpu"
	case FaultWatchdog:
		return "watchdog"
	case FaultInjected:
		return "injected"
	case FaultBrownout:
		return "brownout"
	}
	return "other"
}

// FaultRecord logs one isolation fault.
type FaultRecord struct {
	App    int
	AtMS   uint64
	Reason string
	Class  FaultClass
}

// RestartPolicy governs what happens to faulting apps.
type RestartPolicy struct {
	// MaxFaults kills the app permanently after this many faults (0 =
	// never restart: first fault kills).
	MaxFaults int
	// BackoffMS delays the restart.
	BackoffMS uint64
}

// TaggedValue is one amulet_log_value record.
type TaggedValue struct {
	Tag, Value uint16
	AtMS       uint64
}

// AppState is the kernel's view of one application.
type AppState struct {
	Info  *aft.AppInfo
	Alive bool

	Faults     int
	Dispatches uint64
	Syscalls   uint64
	Cycles     uint64 // active cycles consumed by this app's dispatches

	subs subscriptions // dropped at power loss

	Log       []byte
	LogValues []TaggedValue

	restartAt uint64
}

// Kernel is the OS instance. A booted Kernel is one allocation: the CPU,
// bus, MPU, display and sensors its pointer fields name live inside it (see
// machine), so a Kernel must not be copied.
type Kernel struct {
	FW  *aft.Firmware
	CPU *cpu.CPU
	Bus *mem.Bus
	MPU *mpu.Unit

	Apps   []AppState
	NowMS  uint64
	Policy RestartPolicy

	Faults  []FaultRecord
	Display *Display
	Sensors *Sensors

	// WatchdogBudget bounds the simulated cycles one event delivery may
	// consume before the kernel kills the handler. NewSeeded sets the
	// default; harnesses that hunt runaway handlers lower it.
	WatchdogBudget uint64

	// Latency is the post→dispatch latency histogram in simulated cycles: for
	// each delivered event, how long it sat deliverable (due and ready) before
	// its handler started. A pure function of the simulation — always on, and
	// safe to merge into deterministic fleet reports.
	Latency obs.CycleHist

	queue      eventQueue
	seq        uint64
	rng        uint32
	curApp     int
	yielded    bool
	faultMsg   string
	faultPort  uint16
	timerSeq   uint16
	OSCycles   uint64 // modeled scheduler cycles
	dispatchC0 uint64 // cycle count at dispatch start (for in-event time)
	nowCycles  uint64 // cycle count when NowMS last advanced
	rec        *obs.Recorder
	// arena is the page arena the kernel was booted with, where Release
	// parks it for reuse.
	arena *mem.PageArena

	m machine
}

// Inline capacities of a machine: app sets up to inlineApps keep their
// AppStates inside the Kernel, the event queue grows out of its inline
// array only past inlineEvents queued events, and the fault log only past
// inlineFaults records (a device browned out every 400 ms of a 3 s window
// logs 7).
const (
	inlineApps   = 4
	inlineEvents = 8
	inlineFaults = 8
)

// machine is the hardware and OS state a Kernel's pointer fields name,
// held inline so a boot allocates one struct. Devices reach their state
// through it: each bus device is a view of the CPU, MPU or Kernel itself,
// bound at boot, not a separately allocated object.
type machine struct {
	cpu     cpu.CPU
	mpu     mpu.Unit
	bus     mem.Bus
	display Display
	sensors Sensors
	apps    [inlineApps]AppState
	queue   [inlineEvents]Event
	faults  [inlineFaults]FaultRecord
}

// kernelPorts is the Kernel seen through its memory-mapped fault/yield ports
// and the CPU's syscall port.
type kernelPorts Kernel

func (p *kernelPorts) DeviceName() string { return "os-ports" }

func (p *kernelPorts) ReadWord(addr uint16) uint16 { return 0 }

func (p *kernelPorts) WriteWord(addr uint16, v uint16) {
	k := (*Kernel)(p)
	switch addr {
	case abi.PortFault:
		k.faultMsg = fmt.Sprintf("isolation check fault (port value 0x%04X)", v)
		k.faultPort = v
		k.CPU.Halted = true
	case abi.PortYield:
		k.yielded = true
	}
}

// Syscall implements cpu.SyscallHandler.
func (p *kernelPorts) Syscall(id uint16) { (*Kernel)(p).service(id) }

// New boots a kernel around the firmware: machine assembly, image load, MPU
// plan, and an EvInit for every app at t=0. It uses the historical default
// noise seeds; fleets of decorrelated devices use NewSeeded.
func New(fw *aft.Firmware) *Kernel { return NewSeeded(fw, 0) }

// NewSeeded boots a kernel whose deterministic noise sources (the amulet_rand
// LCG and the sensor suite) derive from seed, so many simulated devices built
// from the same firmware see distinct but reproducible workloads. Seed 0
// selects the defaults New has always used (LCG 0x1234, sensor stream 1).
//
// The firmware is not mutated: the image bytes are cloned into this kernel's
// private bus, so one built Firmware may back any number of concurrently
// running kernels.
func NewSeeded(fw *aft.Firmware, seed uint32) *Kernel {
	return bootLoaded(fw, seed, engine.Engine{})
}

// bootLoaded boots a kernel on engine e over a private erased bus holding a
// fresh load of the firmware image.
func bootLoaded(fw *aft.Firmware, seed uint32, e engine.Engine) *Kernel {
	k := new(Kernel)
	k.m.bus.InitFlat(nil)
	fw.Image.LoadInto(&k.m.bus)
	k.boot(fw, seed, e)
	return k
}

// BootTemplate captures the post-load memory state of a firmware once, so
// subsequent devices boot by cloning 64 KiB (one memmove) instead of
// re-running the erased-FRAM fill and the per-segment firmware load —
// mem.NewBus showed up at ~10% of fleet time. A template is immutable after
// NewBootTemplate and safe to share across goroutines; every kernel booted
// from it owns a private bus clone, exactly as NewSeeded kernels do.
type BootTemplate struct {
	fw *aft.Firmware
	// ct is the post-load snapshot prepared for copy-on-write sharing (the
	// canonical page table COW kernels start from).
	ct *mem.Template
	// layout is the device map every kernel booted from the template
	// shares: its buses bind their own devices to it.
	layout *mem.Layout
	// eng is the engine every kernel booted from this template runs on.
	eng engine.Engine
}

// NewBootTemplate boots one kernel the NewSeeded way and keeps its memory
// snapshot and device layout. Boot writes no memory, so the snapshot is the
// loaded image: a pure function of the firmware, so one template serves
// every seed and, through WithEngine, every engine. The prototype attaches
// no predecode cache, leaving the JIT plan to the first kernel whose engine
// uses one. Kernels boot on the production engine.
func NewBootTemplate(fw *aft.Firmware) *BootTemplate {
	proto := bootLoaded(fw, 0, engine.Engine{NoDecodeCache: true})
	img := new(mem.BusImage)
	proto.Bus.SnapshotData(img)
	return &BootTemplate{fw: fw, ct: mem.NewTemplate(img), layout: proto.Bus.Layout()}
}

// WithEngine returns a template sharing t's firmware and snapshot whose
// kernels boot on e.
func (t *BootTemplate) WithEngine(e engine.Engine) *BootTemplate {
	c := *t
	c.eng = e
	return &c
}

// Firmware returns the firmware the template was built from.
func (t *BootTemplate) Firmware() *aft.Firmware { return t.fw }

// NewKernel boots a kernel from the template — observably identical to
// NewSeeded(fw, seed). On the production engine the device starts as a
// zero-page view over the template and pays one page copy per first write;
// under NoCOW it clones the full 64 KiB, the flat-memory oracle.
func (t *BootTemplate) NewKernel(seed uint32) *Kernel {
	return t.NewKernelArena(seed, nil)
}

// NewKernelArena boots like NewKernel but recycles through arena when one
// is supplied: the kernel reuses a machine Release parked there, and
// write-faults pull retired COW pages from it before touching the
// allocator. A nil arena just allocates. Pages only matter under COW; the
// flat oracle ignores them.
func (t *BootTemplate) NewKernelArena(seed uint32, arena *mem.PageArena) *Kernel {
	k, _ := arena.TakeMachine().(*Kernel)
	if k == nil {
		k = new(Kernel)
	}
	t.ct.Boot(&k.m.bus, arena, t.eng)
	k.m.bus.UseLayout(t.layout)
	k.boot(t.fw, seed, t.eng)
	k.arena = arena
	return k
}

// Release retires k: its private COW pages and page table go back to the
// arena it was booted with, and k itself is zeroed and parked there for the
// next boot from any template to reuse. Without an arena only the pages are
// dropped. k must not be used afterwards, nor slices of its state such as
// Faults and Apps, so call Release once.
func (k *Kernel) Release() {
	k.Bus.ReleasePages()
	if a := k.arena; a != nil {
		*k = Kernel{}
		a.PutMachine(k)
	}
}

// boot assembles the zero kernel k on engine e around its bus, which already
// holds the loaded firmware image: machine devices, MPU, seeded noise
// sources, the shared predecode cache, and an EvInit for every app at t=0.
// It is the one machine assembly every boot path runs.
func (k *Kernel) boot(fw *aft.Firmware, seed uint32, e engine.Engine) {
	m := &k.m
	k.FW, k.CPU, k.Bus, k.MPU = fw, &m.cpu, &m.bus, &m.mpu
	k.Display, k.Sensors = &m.display, &m.sensors
	k.Policy = RestartPolicy{MaxFaults: 3, BackoffMS: 1000}
	k.WatchdogBudget = 50_000_000
	k.rng = bootRNG(seed)
	m.sensors = *NewSensors(seed)

	m.cpu.Init(&m.bus)
	m.mpu.Init()
	m.mpu.Install(&m.bus, e)
	m.bus.Map(abi.PortFault, abi.PortSvcExtra+1, (*kernelPorts)(k))
	// Attach the firmware's shared predecode cache after the image lands on
	// the bus (the load itself must not count as self-modification). The
	// cache survives watchdog kills and app restarts: restarts re-deliver
	// EvInit over the same loaded text, so there is nothing to rebuild, and
	// any code word an app managed to overwrite stays (correctly) routed to
	// the live decoder on this device only.
	m.cpu.UseProgram(fw.Text, e)
	m.cpu.OnSyscall = (*kernelPorts)(k)

	if n := len(fw.Apps); n <= inlineApps {
		k.Apps = m.apps[:n]
	} else {
		k.Apps = make([]AppState, n)
	}
	k.queue = m.queue[:0]
	k.Faults = m.faults[:0]
	for i, info := range fw.Apps {
		k.Apps[i] = AppState{Info: info, Alive: true}
		k.post(Event{Due: 0, App: i, Code: abi.EvInit})
	}
}

// post enqueues an event.
func (k *Kernel) post(e Event) {
	e.seq = k.seq
	e.postCycles = k.CPU.Cycles
	k.seq++
	k.queue.push(e)
	if k.rec != nil {
		k.rec.Record(k.CPU.Cycles, obs.KindEventPost, int16(e.App), e.Code, e.Arg)
	}
}

// Post schedules an event from the outside (tests, examples).
func (k *Kernel) Post(app int, code, arg uint16, inMS uint64) {
	k.post(Event{Due: k.NowMS + inMS, App: app, Code: code, Arg: arg})
}

// PostPeriodic schedules an event that re-arms every periodMS after its
// first delivery at inMS — the scenario-schedule entry point fleets use.
func (k *Kernel) PostPeriodic(app int, code, arg uint16, inMS, periodMS uint64) {
	k.post(Event{Due: k.NowMS + inMS, App: app, Code: code, Arg: arg, Period: periodMS})
}

// InjectFault records a synthetic fault against an app, running the same
// restart policy as a real isolation fault. Fault-injection harnesses use it
// to exercise recovery paths without crafting a memory-violating workload.
func (k *Kernel) InjectFault(app int, reason string) {
	if app < 0 || app >= len(k.Apps) || !k.Apps[app].Alive {
		return
	}
	k.recordFault(app, reason, FaultInjected)
}

// Totals sums the per-app accounting — the aggregation hook for multi-device
// runners that fold many kernels into one report.
func (k *Kernel) Totals() (dispatches, syscalls, cycles uint64) {
	for i := range k.Apps {
		a := &k.Apps[i]
		dispatches += a.Dispatches
		syscalls += a.Syscalls
		cycles += a.Cycles
	}
	return dispatches, syscalls, cycles
}

// InjectButton delivers a button event to every app subscribed to buttons.
func (k *Kernel) InjectButton(button uint16) {
	for i := range k.Apps {
		if _, ok := k.Apps[i].subs.get(abi.SensorButton); ok {
			k.post(Event{Due: k.NowMS, App: i, Code: abi.EvButton, Arg: button})
		}
	}
}

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return k.queue.Len() }

// GateCount reads the context-switch bookkeeping counter maintained by the
// generated gate code.
func (k *Kernel) GateCount() uint16 {
	return k.Bus.Peek16(k.FW.Vars.GateCount)
}

// timeMS returns virtual time including progress within the current event.
func (k *Kernel) timeMS() uint64 {
	return k.NowMS + (k.CPU.Cycles-k.dispatchC0)/CyclesPerMS
}

// osPlan forces the MPU back to the OS plan (Go-side, models the PUC path).
// Like the gates' own MPU register writes, Configure advances the MPU's
// certificate generation, so the bus's execute certificate is re-validated
// at every gate boundary and event delivery — certified fast-path fetches
// can never outlive the plan that certified them.
func (k *Kernel) osPlan() {
	if k.FW.Mode == cc.ModeMPU {
		k.MPU.Configure(k.FW.OSPlanB1, k.FW.OSPlanB2, k.FW.OSPlanSAM, true)
	} else {
		k.MPU.Configure(0, 0, 0x7777, false)
	}
}

// Step processes the next queued event; it reports false when the queue is
// empty. Event delivery runs real code on the simulated CPU.
func (k *Kernel) Step() bool { return k.stepUntil(^uint64(0)) }

// stepUntil delivers the next event due at or before deadline, skipping
// (and consuming) events addressed to dead apps. It reports false when no
// deliverable event remains within the deadline, leaving later events
// queued — RunUntil must never run the machine past its deadline.
func (k *Kernel) stepUntil(deadline uint64) bool {
	for k.queue.Len() > 0 && k.queue[0].Due <= deadline {
		e := k.queue.pop()
		if e.Due > k.NowMS {
			k.NowMS = e.Due
			k.nowCycles = k.CPU.Cycles
		}
		app := &k.Apps[e.App]
		if !app.Alive {
			if app.restartAt != 0 && k.NowMS >= app.restartAt && app.Faults <= k.Policy.MaxFaults {
				app.Alive = true
				app.restartAt = 0
				k.observeLatency(&e)
				if k.rec != nil {
					k.rec.Record(k.CPU.Cycles, obs.KindRestart, int16(e.App), 0, uint16(app.Faults))
				}
				mRestarts.Inc()
				k.deliver(e.App, abi.EvInit, 0)
			}
			// A periodic schedule must survive the backoff window: re-arm
			// unless the app is dead for good (no pending restart), else the
			// schedule silently stops after the app's first fault.
			if e.Period > 0 && (app.Alive || app.restartAt != 0) {
				e.Due = k.NowMS + e.Period
				k.post(e)
			}
			continue
		}
		k.observeLatency(&e)
		k.deliver(e.App, e.Code, e.Arg)
		// Same re-arm rule as the dead-app branch above: a pending restart
		// keeps the schedule, even when this very delivery faulted.
		if e.Period > 0 && (app.Alive || app.restartAt != 0) {
			e.Due = k.NowMS + e.Period
			k.post(e)
		}
		return true
	}
	return false
}

// observeLatency records how long a popped event sat deliverable before its
// handler starts: from the later of its post and the moment virtual time
// reached its due millisecond (an event cannot be "waiting" before it is
// due), to now. Promptly delivered events score 0; events queued behind a
// long handler in the same millisecond score the backlog they sat through —
// the interrupt-latency measure isolation overhead is judged against.
func (k *Kernel) observeLatency(e *Event) {
	ready := e.postCycles
	if k.nowCycles > ready {
		ready = k.nowCycles
	}
	k.Latency.Observe(k.CPU.Cycles - ready)
}

// RunUntil processes queued events until virtual time reaches deadlineMS or
// the queue drains. It returns the number of events delivered.
func (k *Kernel) RunUntil(deadlineMS uint64) int {
	n := 0
	for k.stepUntil(deadlineMS) {
		n++
	}
	if k.NowMS < deadlineMS {
		k.NowMS = deadlineMS
		k.nowCycles = k.CPU.Cycles
	}
	return n
}

// RunBatch delivers at most max due events at or before deadlineMS and
// reports how many were delivered plus whether deliverable work may remain
// before the deadline. Virtual time advances exactly as RunUntil's would:
// only to delivered events' due times while work remains, and to the
// deadline itself once the window is drained (more == false) — so a RunBatch
// loop is observably identical to one RunUntil call, including watchdog and
// periodic-event ordering at batch boundaries. Fleet workers use it to slice
// a device's wear window into bounded batches between cancellation checks.
// max <= 0 means unbounded (one RunUntil-sized batch), so no batch size can
// livelock a drain loop.
func (k *Kernel) RunBatch(deadlineMS uint64, max int) (delivered int, more bool) {
	if max <= 0 {
		max = int(^uint(0) >> 1)
	}
	for delivered < max && k.stepUntil(deadlineMS) {
		delivered++
	}
	if delivered == max && k.queue.Len() > 0 && k.queue[0].Due <= deadlineMS {
		// Events remain in the window. They may all target dead apps (the
		// next batch then delivers nothing and closes the window), but the
		// clock must not jump to the deadline while they are queued.
		return delivered, true
	}
	if k.NowMS < deadlineMS {
		k.NowMS = deadlineMS
		k.nowCycles = k.CPU.Cycles
	}
	return delivered, false
}

// deliver runs one event through the dispatch veneer.
func (k *Kernel) deliver(appIdx int, code, arg uint16) {
	app := &k.Apps[appIdx]
	info := app.Info
	k.curApp = appIdx
	k.yielded = false
	k.faultMsg = ""
	k.faultPort = 0

	// Scheduler model cost (same in every mode).
	k.CPU.Cycles += DispatchModelCycles
	k.OSCycles += DispatchModelCycles

	// Prime the os.var.* block for the gates and veneer.
	vars := &k.FW.Vars
	k.Bus.Poke16(vars.CurB1, info.PlanB1)
	k.Bus.Poke16(vars.CurB2, info.PlanB2)
	k.Bus.Poke16(vars.CurSAM, info.PlanSAM)
	k.Bus.Poke16(vars.CurApp, info.ID)
	k.Bus.Poke16(vars.AppSP, info.StackTop)
	k.Bus.Poke16(vars.OSStackSP, k.FW.OSStackSP)

	// Machine state: OS stack, OS plan, veneer entry.
	k.osPlan()
	k.CPU.Regs[isa.SR] = 0
	k.CPU.SetSP(k.FW.OSStackSP)
	k.CPU.Regs[isa.R11] = info.Handler
	k.CPU.Regs[isa.R12] = code
	k.CPU.Regs[isa.R13] = arg
	k.CPU.SetPC(k.FW.Dispatch)
	k.CPU.Halted = false

	start := k.CPU.Cycles
	k.dispatchC0 = start
	app.Dispatches++
	mDispatches.Inc()
	if k.rec != nil {
		k.rec.Record(start, obs.KindDispatch, int16(appIdx), code, arg)
	}

	faultsBefore := len(k.Faults)
	reason, fault := k.CPU.Run(k.WatchdogBudget)
	app.Cycles += k.CPU.Cycles - start

	switch {
	case len(k.Faults) > faultsBefore:
		// A Go-side service already recorded this delivery's fault (e.g.
		// an unknown syscall) and halted the CPU; recording the stop again
		// would double-count it against the restart policy.
	case reason == cpu.StopCPUOff && k.yielded:
		// normal completion
	case reason == cpu.StopHalt && k.faultMsg != "":
		// The fault port's value attributes the check: an app's own fault
		// stub writes the app ID (a compiler-inserted check fired); the
		// shared gate-failure stub writes FaultCurrentApp.
		class := FaultCheck
		if k.faultPort == abi.FaultCurrentApp {
			class = FaultGate
		}
		k.recordFault(appIdx, k.faultMsg, class)
	case reason == cpu.StopFault:
		msg, class := "cpu fault", FaultCPU
		if fault != nil {
			msg = fault.Error()
			if fault.Violation != nil {
				class = FaultMPU
			}
		}
		k.recordFault(appIdx, msg, class)
	case reason == cpu.StopBudget:
		k.recordFault(appIdx, "watchdog: event handler exceeded cycle budget", FaultWatchdog)
	default:
		k.recordFault(appIdx, fmt.Sprintf("unexpected stop (%v)", reason), FaultOther)
	}
	// Clear latched MPU flags and restore the OS plan for the next event.
	k.MPU.WriteWord(mpu.RegCTL1, 0)
	k.osPlan()
	if k.rec != nil {
		k.rec.Record(k.CPU.Cycles, obs.KindDispatchDone, int16(appIdx), code, 0)
	}
}

// recordFault applies the restart policy to a faulting app.
func (k *Kernel) recordFault(appIdx int, reason string, class FaultClass) {
	app := &k.Apps[appIdx]
	app.Faults++
	app.Alive = false
	k.Faults = append(k.Faults, FaultRecord{App: appIdx, AtMS: k.NowMS, Reason: reason, Class: class})
	mFaults.With(class.String()).Inc()
	if class == FaultWatchdog {
		mWatchdog.Inc()
	}
	if k.rec != nil {
		k.rec.Record(k.CPU.Cycles, obs.KindFault, int16(appIdx), uint16(class), 0)
	}
	if k.Policy.MaxFaults > 0 && app.Faults <= k.Policy.MaxFaults {
		app.restartAt = k.NowMS + k.Policy.BackoffMS
		// A queued wake-up guarantees the restart triggers even if no other
		// event targets this app.
		k.post(Event{Due: app.restartAt, App: appIdx, Code: abi.EvTick})
	}
}

// randWord steps the kernel's deterministic LCG.
func (k *Kernel) randWord() uint16 {
	k.rng = k.rng*1103515245 + 12345
	return uint16(k.rng >> 16)
}
