package kernel

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"amuletiso/internal/cpu"
	"amuletiso/internal/mem"
	"amuletiso/internal/mpu"
	"amuletiso/internal/obs"
)

// This file implements kernel checkpointing: Checkpoint captures everything a
// running device carries that is not reconstructible from its firmware, and
// BootTemplate.Resume boots an observably identical kernel from one. The
// contract is exact resumption — a checkpointed-and-resumed device delivers
// the same events, faults the same way, and reaches the same memory and
// accounting state as one that never stopped, byte for byte.
//
// Memory is stored template-relative: the bus's private pages (mem.Bus
// PrivatePages) are compared with the boot template and only differing pages
// are kept. A COW device shares every other page with the template, so the
// walk costs O(dirty pages) — an idle device touches about ten of the 256 —
// while the flat oracle walks all 256 and yields the same patches. A page
// written back to its template bytes yields no patch either way, so
// checkpoints stay small and a resumed COW device faults in exactly the
// pages that differ. Checkpoints must be taken between events (after
// RunUntil or a drained RunBatch window), when the CPU is parked and no
// delivery is in flight — the same boundary fleet workers already use for
// cancellation.
//
// The flight-recorder ring is deliberately not captured: tracing observes the
// simulation without affecting it, so a resumed device recreates identical
// behavior but not the pre-checkpoint trace. Callers that need complete rings
// (fault-trace hunts) should re-run the device from boot instead.

// EventCheckpoint is one queued Event in serializable form, including the
// scheduling tiebreaker and the latency anchor.
type EventCheckpoint struct {
	Due        uint64 `json:"due"`
	App        int    `json:"app"`
	Code       uint16 `json:"code"`
	Arg        uint16 `json:"arg,omitempty"`
	Period     uint64 `json:"period,omitempty"`
	Seq        uint64 `json:"seq"`
	PostCycles uint64 `json:"postCycles,omitempty"`
}

// AppCheckpoint is the serializable per-app state.
type AppCheckpoint struct {
	Alive      bool              `json:"alive"`
	Faults     int               `json:"faults,omitempty"`
	Dispatches uint64            `json:"dispatches,omitempty"`
	Syscalls   uint64            `json:"syscalls,omitempty"`
	Cycles     uint64            `json:"cycles,omitempty"`
	Subs       map[uint16]uint64 `json:"subs,omitempty"`
	Log        []byte            `json:"log,omitempty"`
	LogValues  []TaggedValue     `json:"logValues,omitempty"`
	RestartAt  uint64            `json:"restartAt,omitempty"`
}

// DisplayState is the serializable display model.
type DisplayState struct {
	Rows   map[int]string `json:"rows,omitempty"`
	Clears int            `json:"clears,omitempty"`
	Draws  int            `json:"draws,omitempty"`
	Texts  int            `json:"texts,omitempty"`
}

// PagePatch is one bus page whose content differs from the boot template.
type PagePatch struct {
	Page int    `json:"page"`
	Data []byte `json:"data"`
}

// Checkpoint is the complete serializable state of a kernel booted from a
// BootTemplate, relative to that template. It is plain data: JSON-encodable,
// with canonical ordering (sorted pages, sorted queue, sorted dirty-code),
// so two checkpoints of identical simulation states encode identically.
type Checkpoint struct {
	// Seed re-boots the device's sensor suite; the mutable RNG below carries
	// the LCG's current position separately.
	Seed           uint32        `json:"seed"`
	NowMS          uint64        `json:"nowMS"`
	Policy         RestartPolicy `json:"policy"`
	WatchdogBudget uint64        `json:"watchdogBudget"`

	Seq        uint64 `json:"seq"`
	TimerSeq   uint16 `json:"timerSeq,omitempty"`
	RNG        uint32 `json:"rng"`
	OSCycles   uint64 `json:"osCycles,omitempty"`
	NowCycles  uint64 `json:"nowCycles,omitempty"`
	DispatchC0 uint64 `json:"dispatchC0,omitempty"`

	Queue   []EventCheckpoint `json:"queue,omitempty"`
	Apps    []AppCheckpoint   `json:"apps"`
	Faults  []FaultRecord     `json:"faultLog,omitempty"`
	Latency obs.CycleHist     `json:"latency"`
	Display DisplayState      `json:"display"`

	CPU cpu.State `json:"cpu"`
	MPU mpu.State `json:"mpu"`

	Pages []PagePatch `json:"pages,omitempty"`
}

// Checkpoint captures k's state relative to this template. k must have been
// booted from t (or an identically built template) and must be between
// events — never call it from inside a service handler.
func (t *BootTemplate) Checkpoint(k *Kernel) *Checkpoint {
	ck := &Checkpoint{
		Seed:           k.Sensors.Seed(),
		NowMS:          k.NowMS,
		Policy:         k.Policy,
		WatchdogBudget: k.WatchdogBudget,
		Seq:            k.seq,
		TimerSeq:       k.timerSeq,
		RNG:            k.rng,
		OSCycles:       k.OSCycles,
		NowCycles:      k.nowCycles,
		DispatchC0:     k.dispatchC0,
		Latency:        k.Latency,
		CPU:            k.CPU.State(),
		MPU:            k.MPU.State(),
	}
	ck.Faults = append(ck.Faults, k.Faults...)

	// Canonical queue order is delivery order (Due, seq) — the heap array's
	// internal layout depends on push/pop history and is not meaningful.
	ck.Queue = make([]EventCheckpoint, 0, len(k.queue))
	for _, e := range k.queue {
		ck.Queue = append(ck.Queue, EventCheckpoint{
			Due: e.Due, App: e.App, Code: e.Code, Arg: e.Arg,
			Period: e.Period, Seq: e.seq, PostCycles: e.postCycles,
		})
	}
	sort.Slice(ck.Queue, func(i, j int) bool {
		if ck.Queue[i].Due != ck.Queue[j].Due {
			return ck.Queue[i].Due < ck.Queue[j].Due
		}
		return ck.Queue[i].Seq < ck.Queue[j].Seq
	})

	ck.Apps = make([]AppCheckpoint, len(k.Apps))
	for i := range k.Apps {
		a := &k.Apps[i]
		ac := AppCheckpoint{
			Alive: a.Alive, Faults: a.Faults, Dispatches: a.Dispatches,
			Syscalls: a.Syscalls, Cycles: a.Cycles, RestartAt: a.restartAt,
		}
		if len(a.Subs) > 0 {
			ac.Subs = make(map[uint16]uint64, len(a.Subs))
			for s, p := range a.Subs {
				ac.Subs[s] = p
			}
		}
		ac.Log = append(ac.Log, a.Log...)
		ac.LogValues = append(ac.LogValues, a.LogValues...)
		ck.Apps[i] = ac
	}

	if len(k.Display.Rows) > 0 {
		ck.Display.Rows = make(map[int]string, len(k.Display.Rows))
		for r, s := range k.Display.Rows {
			ck.Display.Rows[r] = s
		}
	}
	ck.Display.Clears = k.Display.Clears
	ck.Display.Draws = k.Display.Draws
	ck.Display.Texts = k.Display.Texts

	// Template-relative memory: keep only private pages that differ from
	// the boot image (shared COW pages are the template's own bytes). Device
	// registers never back onto bus pages (they are captured in CPU/MPU
	// state above), so device-covered pages always match the template and
	// never produce a patch.
	for p, data := range k.Bus.PrivatePages {
		lo := p * mem.PageSize
		if string(data) == string(t.ct.Image()[lo:lo+mem.PageSize]) {
			continue
		}
		ck.Pages = append(ck.Pages, PagePatch{
			Page: p,
			Data: append([]byte(nil), data...),
		})
	}
	return ck
}

// validate rejects a checkpoint no run of a firmware with apps apps can
// produce, before anything is booted from it: an app count that does not
// match, a queued event or fault record naming an app the firmware lacks
// (the fault log's App -1 is the brownout record), a negative count, a
// display row no 16-bit row argument can name, an app charged more faults
// than the whole log holds, or a malformed page patch. Each would otherwise
// surface later as a panic or a report no run can produce.
func (ck *Checkpoint) validate(apps int) error {
	if len(ck.Apps) != apps {
		return fmt.Errorf("kernel: checkpoint has %d apps, firmware has %d", len(ck.Apps), apps)
	}
	if ck.Policy.MaxFaults < 0 {
		return fmt.Errorf("kernel: checkpoint policy has negative MaxFaults %d", ck.Policy.MaxFaults)
	}
	for _, e := range ck.Queue {
		if e.App < 0 || e.App >= apps {
			return fmt.Errorf("kernel: queued event (seq %d) targets app %d of %d", e.Seq, e.App, apps)
		}
	}
	for _, f := range ck.Faults {
		if (f.App < 0 || f.App >= apps) && !(f.App == -1 && f.Class == FaultBrownout) {
			return fmt.Errorf("kernel: fault record at %d ms names app %d of %d", f.AtMS, f.App, apps)
		}
	}
	for i, a := range ck.Apps {
		if a.Faults < 0 || a.Faults > len(ck.Faults) {
			return fmt.Errorf("kernel: app %d has %d faults, fault log has %d records", i, a.Faults, len(ck.Faults))
		}
	}
	d := ck.Display
	if d.Clears < 0 || d.Draws < 0 || d.Texts < 0 {
		return fmt.Errorf("kernel: negative display counters (%d clears, %d draws, %d texts)", d.Clears, d.Draws, d.Texts)
	}
	for r := range d.Rows {
		if r < 0 || r > 0xFFFF {
			return fmt.Errorf("kernel: display row %d out of range", r)
		}
	}
	for _, p := range ck.Pages {
		const pages = (1 << 16) / mem.PageSize
		if p.Page < 0 || p.Page >= pages || len(p.Data) != mem.PageSize {
			return fmt.Errorf("kernel: malformed page patch (page %d, %d bytes)", p.Page, len(p.Data))
		}
	}
	return nil
}

// Resume boots a kernel from a checkpoint taken against this template,
// recycling through arena when one is supplied (nil allocates, as
// NewKernelArena). The resumed kernel is observably identical to the one the
// checkpoint was taken from: re-checkpointing it yields byte-identical JSON.
// A checkpoint no run of the template's firmware can produce is rejected
// before anything boots (see validate).
func (t *BootTemplate) Resume(ck *Checkpoint, arena *mem.PageArena) (*Kernel, error) {
	if err := ck.validate(len(t.fw.Apps)); err != nil {
		return nil, err
	}
	k := t.NewKernelArena(ck.Seed, arena)

	// Memory first: LoadBytes runs the raw loader path (no device dispatch,
	// no access profiling) and trips the code watch for any patched text, so
	// a self-modified instruction stays routed to the live decoder. The CPU
	// restore below then replaces the accumulated dirty set with the
	// checkpoint's own — the authoritative one.
	for _, p := range ck.Pages {
		k.Bus.LoadBytes(uint16(p.Page*mem.PageSize), p.Data)
	}
	k.CPU.SetState(ck.CPU)
	k.MPU.SetState(ck.MPU)

	k.NowMS = ck.NowMS
	k.Policy = ck.Policy
	k.WatchdogBudget = ck.WatchdogBudget
	k.seq = ck.Seq
	k.timerSeq = ck.TimerSeq
	k.rng = ck.RNG
	k.OSCycles = ck.OSCycles
	k.nowCycles = ck.NowCycles
	k.dispatchC0 = ck.DispatchC0
	k.Latency = ck.Latency
	k.Faults = append(k.Faults[:0], ck.Faults...)

	// Replace the boot-posted EvInit queue wholesale, in the kernel's own
	// backing array. Sorted by (Due, seq), the array already satisfies the
	// min-heap invariant, so it can back the heap directly.
	q := k.queue[:0]
	for _, e := range ck.Queue {
		q = append(q, Event{
			Due: e.Due, App: e.App, Code: e.Code, Arg: e.Arg,
			Period: e.Period, seq: e.Seq, postCycles: e.PostCycles,
		})
	}
	slices.SortFunc(q, func(a, b Event) int {
		if c := cmp.Compare(a.Due, b.Due); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	k.queue = q

	for i, ac := range ck.Apps {
		app := &k.Apps[i]
		app.Alive = ac.Alive
		app.Faults = ac.Faults
		app.Dispatches = ac.Dispatches
		app.Syscalls = ac.Syscalls
		app.Cycles = ac.Cycles
		app.restartAt = ac.RestartAt
		if len(ac.Subs) > 0 {
			app.Subs = make(map[uint16]uint64, len(ac.Subs))
			for s, p := range ac.Subs {
				app.Subs[s] = p
			}
		}
		app.Log = append([]byte(nil), ac.Log...)
		app.LogValues = append([]TaggedValue(nil), ac.LogValues...)
	}

	if len(ck.Display.Rows) > 0 {
		k.Display.Rows = make(map[int]string, len(ck.Display.Rows))
		for r, s := range ck.Display.Rows {
			k.Display.Rows[r] = s
		}
	}
	k.Display.Clears = ck.Display.Clears
	k.Display.Draws = ck.Display.Draws
	k.Display.Texts = ck.Display.Texts
	return k, nil
}
