package kernel

import (
	"amuletiso/internal/abi"
	"amuletiso/internal/cpu"
	"amuletiso/internal/mem"
	"amuletiso/internal/mpu"
	"amuletiso/internal/obs"
)

// This file models what power loss does to a device. On the MSP430FR5969 the
// register file, SRAM, peripheral registers (MPU plan, timers, the MPY32
// unit), and anything in flight are gone the instant the supply dips below
// the brownout threshold; information FRAM, main FRAM, and the vector table
// are ferroelectric and retain their last committed write.
//
// Fleets and CLIs power-cycle a live kernel in place: Brownout drops its
// volatile state and parks it, Reboot re-runs the OS boot path on the parked
// kernel. Both touch only what power loss touches — the volatile private
// pages and a handful of fields — so a cycle costs O(dirty pages), with no
// fresh kernel, no page re-faults and no full-image copy.
//
// PersistentCut and RebootImage are the same two steps as pure transforms on
// plain Checkpoints: PersistentCut projects a checkpoint onto the surviving
// FRAM surface, RebootImage extends a cut into the checkpoint the OS boot
// path leaves behind. They never touch metrics or the live simulation, and
// they are the oracle the in-place path is held to byte for byte:
//
//	Checkpoint(Brownout(k, t))   == PersistentCut(Checkpoint(k), t)
//	Checkpoint(Reboot(k, r))     == RebootImage(Checkpoint(k), r)
//
// RebootFromCut serves callers that hold only a serialized cut (a device
// parked dark in a campaign checkpoint): it resumes the cut and reboots it in
// place.

// brownoutReason is the fault-log entry text for a power-loss fault.
const brownoutReason = "brownout: supply fell below threshold"

// bootRNG derives the amulet_rand LCG's boot position from the device seed.
// The LCG state lives in SRAM, so the OS re-seeds it on every boot.
func bootRNG(seed uint32) uint32 {
	if seed == 0 {
		return 0x1234
	}
	rng := seed*2654435761 + 0x9E3779B9
	if rng == 0 {
		rng = 0x1234
	}
	return rng
}

// PersistentCut returns the FRAM-resident remainder of a checkpoint after
// power is lost at brownoutMS: volatile state (CPU registers, pending IRQs,
// SRAM pages, peripheral/MPU registers, the event queue, sensor
// subscriptions, the display) is dropped, while FRAM state (persistent
// memory pages, per-app accounting and logs, the fault log, the latency
// histogram, the OS cycle counters) survives. A brownout FaultRecord with
// App -1 is appended to the fault log. The input is not mutated.
//
// Apps that had exhausted the restart policy stay dead across the reboot;
// everything else comes back — the OS re-inits any app whose fault count is
// still within policy.
func (t *BootTemplate) PersistentCut(ck *Checkpoint, brownoutMS uint64) *Checkpoint {
	cut := &Checkpoint{
		Seed:           ck.Seed,
		NowMS:          brownoutMS,
		Policy:         ck.Policy,
		WatchdogBudget: ck.WatchdogBudget,
		Seq:            ck.Seq,
		OSCycles:       ck.OSCycles,
		Latency:        ck.Latency,
		CPU:            persistentCPU(ck.CPU),
		MPU:            persistentMPU(ck.MPU),
	}
	for _, p := range ck.Pages {
		if !mem.PagePersistent(p.Page) {
			continue
		}
		cut.Pages = append(cut.Pages, PagePatch{
			Page: p.Page,
			Data: append([]byte(nil), p.Data...),
		})
	}
	cut.Apps = make([]AppCheckpoint, len(ck.Apps))
	for i, ac := range ck.Apps {
		na := AppCheckpoint{
			Alive:      ac.Faults <= ck.Policy.MaxFaults,
			Faults:     ac.Faults,
			Dispatches: ac.Dispatches,
			Syscalls:   ac.Syscalls,
			Cycles:     ac.Cycles,
		}
		na.Log = append(na.Log, ac.Log...)
		na.LogValues = append(na.LogValues, ac.LogValues...)
		cut.Apps[i] = na
	}
	cut.Faults = append(cut.Faults, ck.Faults...)
	cut.Faults = append(cut.Faults, FaultRecord{
		App: -1, AtMS: brownoutMS, Reason: brownoutReason, Class: FaultBrownout,
	})
	return cut
}

// persistentCPU is what survives of a CPU across power loss. The cycle and
// instruction odometers are OS-maintained FRAM counters; everything else in
// the CPU is volatile, and self-modified text survives only where the write
// landed in FRAM.
func persistentCPU(s cpu.State) cpu.State {
	out := cpu.State{Cycles: s.Cycles, Insns: s.Insns}
	for _, a := range s.DirtyCode {
		if mem.PagePersistent(int(a) / mem.PageSize) {
			out.DirtyCode = append(out.DirtyCode, a)
		}
	}
	return out
}

// persistentMPU is the MPU as it comes back from power loss, in reset state:
// the capability is a hardware trait and survives, the plan registers and
// latched flags do not.
func persistentMPU(s mpu.State) mpu.State {
	return mpu.State{Cap: s.Cap, SAM: 0x7777}
}

// RebootImage extends a persistent cut into the checkpoint of the device as
// the OS boot path leaves it at restartMS: the boot RNG is re-seeded, the
// time base is re-anchored at the surviving cycle odometer, and an EvInit is
// queued for every app the restart policy still allows — dead apps stay
// dead. The result is directly Resumable, and re-checkpointing the resumed
// kernel yields these bytes back. The input is not mutated.
func (t *BootTemplate) RebootImage(cut *Checkpoint, restartMS uint64) *Checkpoint {
	img := t.PersistentCut(cut, cut.NowMS) // idempotent projection: deep-copies, keeps the fault log as-is
	// PersistentCut appended a second brownout record to its copy; drop it —
	// cut already carries the brownout fault.
	img.Faults = img.Faults[:len(img.Faults)-1]

	img.NowMS = restartMS
	img.RNG = bootRNG(cut.Seed)
	img.NowCycles = cut.CPU.Cycles
	img.DispatchC0 = cut.CPU.Cycles
	// Allocated even when every app is dead, matching Checkpoint's
	// always-non-nil queue representation so the two stay byte-comparable.
	img.Queue = make([]EventCheckpoint, 0, len(img.Apps))
	for i := range img.Apps {
		if !img.Apps[i].Alive {
			continue
		}
		img.Queue = append(img.Queue, EventCheckpoint{
			Due: restartMS, App: i, Code: abi.EvInit,
			Seq: img.Seq, PostCycles: cut.CPU.Cycles,
		})
		img.Seq++
	}
	return img
}

// Brownout cuts power to k at brownoutMS, in place: afterwards k holds
// exactly the FRAM-persistent remainder PersistentCut computes — its
// Checkpoint encodes to the same bytes as PersistentCut of its pre-brownout
// Checkpoint. Volatile private pages
// revert to the boot image (COW pages go back to the arena), the CPU, MPU,
// event queue, sensor subscriptions, display and RNG reset, and the brownout
// FaultRecord is appended. The flight recorder dies with the power. k stays
// parked until Reboot; like Checkpoint, call it only between events.
func (t *BootTemplate) Brownout(k *Kernel, brownoutMS uint64) {
	k.AttachRecorder(nil)
	k.Bus.RevertVolatile(t.ct.Image())
	// The CPU restore replaces any dirty marks the revert just added with
	// the surviving set, as Resume does after loading pages.
	k.CPU.SetState(persistentCPU(k.CPU.State()))
	k.MPU.SetState(persistentMPU(k.MPU.State()))

	k.NowMS = brownoutMS
	k.queue = k.queue[:0]
	k.timerSeq = 0
	k.rng = 0
	k.nowCycles = 0
	k.dispatchC0 = 0
	k.curApp, k.yielded, k.faultMsg, k.faultPort = 0, false, "", 0
	for i := range k.Apps {
		app := &k.Apps[i]
		// Apps that exhausted the restart policy stay dead; a pending
		// restart's wake-up was in the (lost) queue.
		app.Alive = app.Faults <= k.Policy.MaxFaults
		app.restartAt = 0
		clear(app.Subs)
	}
	clear(k.Display.Rows)
	k.Display.Clears, k.Display.Draws, k.Display.Texts = 0, 0, 0
	k.Faults = append(k.Faults, FaultRecord{
		App: -1, AtMS: brownoutMS, Reason: brownoutReason, Class: FaultBrownout,
	})
}

// Reboot runs the OS boot path on a kernel parked by Brownout (or resumed
// from a persistent cut), in place: the boot RNG is re-seeded, the time base
// is re-anchored at the surviving cycle odometer, and an EvInit is queued at
// restartMS for every app the restart policy still allows. A fresh flight
// recorder replaces the dead one when tracing is on, as at boot. Afterwards
// its Checkpoint encodes to the same bytes as RebootImage of its parked
// Checkpoint at restartMS.
func (t *BootTemplate) Reboot(k *Kernel, restartMS uint64) {
	k.NowMS = restartMS
	k.rng = bootRNG(k.Sensors.Seed())
	k.nowCycles = k.CPU.Cycles
	k.dispatchC0 = k.CPU.Cycles
	if obs.TracingEnabled() {
		k.AttachRecorder(obs.NewRecorder(obs.DefaultRing))
	} else {
		k.AttachRecorder(nil)
	}
	for i := range k.Apps {
		if k.Apps[i].Alive {
			k.post(Event{Due: restartMS, App: i, Code: abi.EvInit})
		}
	}
}

// RebootFromCut boots a live kernel from a serialized persistent cut at
// restartMS: Resume(cut) followed by an in-place Reboot, so the kernel
// re-checkpoints to RebootImage(cut, restartMS). COW pages recycle through
// arena when one is supplied, as in NewKernelArena.
func (t *BootTemplate) RebootFromCut(cut *Checkpoint, restartMS uint64, arena *mem.PageArena) (*Kernel, error) {
	k, err := t.Resume(cut, arena)
	if err != nil {
		return nil, err
	}
	t.Reboot(k, restartMS)
	return k, nil
}
