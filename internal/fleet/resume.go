package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"amuletiso/internal/kernel"
	"amuletiso/internal/mem"
)

// This file implements resumable campaigns: a run that can be checkpointed
// while in flight and continued later — by the same process or a restarted
// one — with a final report byte-identical to an uninterrupted run's.
//
// Consistency is trivial because devices are independent: any per-device mix
// of {finished result, mid-window kernel checkpoint, not started} is a valid
// cut, no cross-device barrier needed. Correctness does not depend on the
// snapshots either — a device missing from a checkpoint simply reruns from
// boot, and determinism guarantees the same result — so snapshots are purely
// a work-saving measure, and any snapshot cadence is safe.

// DeviceCheckpoint is one device parked mid-wear-window: the serialized
// kernel plus the wear-loop cursors advance needs to continue it.
type DeviceCheckpoint struct {
	Device     int    `json:"device"`
	Events     int    `json:"events"`
	Now        uint64 `json:"now"`
	NextButton uint64 `json:"nextButton"`
	NextFault  uint64 `json:"nextFault"`
	ButtonRNG  uint64 `json:"buttonRNG"`
	// Kernel is nil exactly when the device is parked dark after a brownout;
	// Power.Cut then carries the FRAM state its reboot will restore.
	Kernel *kernel.Checkpoint `json:"kernel,omitempty"`
	// Power is the supercapacitor state; nil on a stable bench supply.
	Power *PowerCheckpoint `json:"power,omitempty"`
}

// CampaignCheckpoint is a consistent cut of one scenario run: finished
// devices' results plus in-flight devices' checkpoints, with enough identity
// to reject resumption against a different scenario. Devices in neither list
// rerun from boot on resume.
type CampaignCheckpoint struct {
	Scenario    string `json:"scenario"`
	Mode        string `json:"mode"`
	Seed        uint64 `json:"seed"`
	DurationMS  uint64 `json:"durationMS"`
	FirstDevice int    `json:"firstDevice,omitempty"`
	Devices     int    `json:"devices"`

	// Power-model identity: resuming under different power knobs would
	// silently change device behavior, so the cut pins them. All omitempty,
	// keeping pre-power cuts loadable.
	PowerTrace      string `json:"powerTrace,omitempty"`
	BrownoutEveryMS uint64 `json:"brownoutEveryMS,omitempty"`
	BrownoutOffMS   uint64 `json:"brownoutOffMS,omitempty"`

	Done     []DeviceResult     `json:"done,omitempty"`
	InFlight []DeviceCheckpoint `json:"inFlight,omitempty"`
}

// matches rejects cuts taken from a different campaign, and cuts whose
// finished or in-flight devices lie outside the scenario's shard.
func (ck *CampaignCheckpoint) matches(sc *Scenario) error {
	if ck.Scenario != sc.Name || ck.Mode != sc.Mode.String() ||
		ck.Seed != sc.Seed || ck.DurationMS != sc.DurationMS ||
		ck.FirstDevice != sc.FirstDevice || ck.Devices != sc.Devices ||
		ck.PowerTrace != sc.PowerTrace || ck.BrownoutEveryMS != sc.BrownoutEveryMS ||
		ck.BrownoutOffMS != sc.BrownoutOffMS {
		return fmt.Errorf("fleet: checkpoint is for campaign %q/%s seed=%d dur=%d devices=[%d,%d), not this scenario",
			ck.Scenario, ck.Mode, ck.Seed, ck.DurationMS, ck.FirstDevice, ck.FirstDevice+ck.Devices)
	}
	outside := func(device int) error {
		if device < sc.FirstDevice || device >= sc.FirstDevice+sc.Devices {
			return fmt.Errorf("fleet: checkpoint names device %d outside the shard [%d,%d)",
				device, sc.FirstDevice, sc.FirstDevice+sc.Devices)
		}
		return nil
	}
	for i := range ck.Done {
		if err := outside(ck.Done[i].Device); err != nil {
			return err
		}
	}
	for i := range ck.InFlight {
		if err := outside(ck.InFlight[i].Device); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint serializes the device's current state. The device keeps running
// afterwards — checkpointing only reads.
func (d *deviceSim) checkpoint() *DeviceCheckpoint {
	dc := &DeviceCheckpoint{
		Device:     d.device,
		Events:     d.events,
		Now:        d.now,
		NextButton: d.nextButton,
		NextFault:  d.nextFault,
		ButtonRNG:  d.buttonRNG,
	}
	ck := d.tmpl.Checkpoint(d.k)
	if d.power != nil {
		var cut *kernel.Checkpoint
		if d.dark() {
			cut, ck = ck, nil
		}
		dc.Power = d.power.checkpoint(cut)
	}
	dc.Kernel = ck
	return dc
}

// resumeDeviceSim continues a parked device from its checkpoint.
func resumeDeviceSim(sc *Scenario, tmpl *kernel.BootTemplate, arena *mem.PageArena, dc *DeviceCheckpoint) (*deviceSim, error) {
	seed := DeviceSeed(sc.Seed, dc.Device)
	// A dark device resumes its parked kernel from the persistent cut.
	ck := dc.Kernel
	if ck == nil {
		if dc.Power == nil || !dc.Power.Off || dc.Power.Cut == nil {
			return nil, fmt.Errorf("fleet: device %d checkpoint has no kernel and is not parked dark", dc.Device)
		}
		ck = dc.Power.Cut
	}
	k, err := tmpl.Resume(ck, arena)
	if err != nil {
		return nil, fmt.Errorf("fleet: device %d: %w", dc.Device, err)
	}
	mDevicesStarted.Inc()
	d := &deviceSim{
		sc: sc, tmpl: tmpl, k: k,
		device:     dc.Device,
		seed:       seed,
		events:     dc.Events,
		now:        dc.Now,
		nextButton: dc.NextButton,
		nextFault:  dc.NextFault,
		buttonRNG:  dc.ButtonRNG,
	}
	if dc.Power != nil && sc.powered() {
		d.power = resumePowerState(sc, seed, dc.Power)
	}
	return d, nil
}

// Cutter takes consistent cuts of a running RunResumable campaign when its
// caller asks for them. Pass one to a single RunResumable call at a time.
type Cutter struct {
	mu sync.Mutex
	st *campaignState // the attached run's ledger; nil outside the run
}

// Cut returns the attached run's current consistent cut and asks its running
// devices for fresh snapshots: each parks one at its next poll, between
// event batches or at an injection or power boundary. The next cut carries
// them, so a cut taken every interval is at most one interval plus one event
// batch stale. Cut returns nil before RunResumable starts and after it
// returns.
func (c *Cutter) Cut() *CampaignCheckpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st == nil {
		return nil
	}
	return c.st.cut(true)
}

// attach points the cutter at a run's ledger (nil detaches it).
func (c *Cutter) attach(st *campaignState) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.st = st
	c.mu.Unlock()
}

// campaignState is the shared progress ledger a resumable run's workers and
// its Cutter coordinate through. Its slices are indexed by device −
// FirstDevice, so a cut lists devices in order without sorting and a
// finished result is stored in place.
type campaignState struct {
	sc *Scenario

	// requests counts the snapshot requests Cut made, one per cut, raised
	// under mu. A device parks a snapshot at a poll only while a request it
	// has not answered is pending, so a run nobody cuts takes no snapshots.
	requests atomic.Uint64

	mu       sync.Mutex
	done     []DeviceResult
	finished []bool
	inflight []*DeviceCheckpoint
}

// cut assembles a consistent CampaignCheckpoint from the current ledger;
// with ask it also raises a snapshot request, under the same lock, so every
// snapshot parked before the request is in this cut.
func (st *campaignState) cut(ask bool) *CampaignCheckpoint {
	st.mu.Lock()
	defer st.mu.Unlock()
	if ask {
		defer st.requests.Add(1)
	}
	ck := &CampaignCheckpoint{
		Scenario:        st.sc.Name,
		Mode:            st.sc.Mode.String(),
		Seed:            st.sc.Seed,
		DurationMS:      st.sc.DurationMS,
		FirstDevice:     st.sc.FirstDevice,
		Devices:         st.sc.Devices,
		PowerTrace:      st.sc.PowerTrace,
		BrownoutEveryMS: st.sc.BrownoutEveryMS,
		BrownoutOffMS:   st.sc.BrownoutOffMS,
	}
	for i, fin := range st.finished {
		switch {
		case fin:
			ck.Done = append(ck.Done, st.done[i])
		case st.inflight[i] != nil:
			ck.InFlight = append(ck.InFlight, *st.inflight[i])
		}
	}
	return ck
}

// park stores a device's snapshot and returns the requests it answers:
// every one raised so far, since the next cut will carry it.
func (st *campaignState) park(dc *DeviceCheckpoint) uint64 {
	mSnapshots.Inc()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.inflight[dc.Device-st.sc.FirstDevice] = dc
	return st.requests.Load()
}

func (st *campaignState) finish(device int, res DeviceResult) {
	i := device - st.sc.FirstDevice
	st.mu.Lock()
	st.done[i], st.finished[i], st.inflight[i] = res, true, nil
	st.mu.Unlock()
}

// RunResumable runs the scenario like Run, continuing from a prior cut when
// one is supplied. On success it returns the finished report — byte-identical
// to an uninterrupted run's, no matter how many kill/resume cycles the
// campaign went through. On cancellation it returns a final consistent cut
// alongside ctx's error; persist it and pass it back to continue. While the
// run is in flight, cutter (optional) takes mid-run cuts on request; without
// one, no device is snapshotted until cancellation. Snapshots are skipped
// for FaultTrace scenarios (the flight-recorder ring is not serializable, so
// a resumed trace would differ): those devices always rerun from boot.
func (r *Runner) RunResumable(ctx context.Context, sc Scenario, prior *CampaignCheckpoint, cutter *Cutter) (*Report, *CampaignCheckpoint, error) {
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	tmpl, err := r.template(&sc)
	if err != nil {
		return nil, nil, err
	}

	st := &campaignState{
		sc:       &sc,
		done:     make([]DeviceResult, sc.Devices),
		finished: make([]bool, sc.Devices),
		inflight: make([]*DeviceCheckpoint, sc.Devices),
	}
	snapshots := !sc.FaultTrace
	if prior != nil {
		if err := prior.matches(&sc); err != nil {
			return nil, nil, err
		}
		for _, res := range prior.Done {
			i := res.Device - sc.FirstDevice
			st.done[i], st.finished[i] = res, true
		}
		if snapshots {
			for i := range prior.InFlight {
				dc := prior.InFlight[i]
				st.inflight[dc.Device-sc.FirstDevice] = &dc
			}
		}
	}

	// The worklist is every device without a finished result, in index order.
	work := make([]int, 0, sc.Devices)
	for i, fin := range st.finished {
		if !fin {
			work = append(work, sc.FirstDevice+i)
		}
	}

	cutter.attach(st)
	defer cutter.attach(nil)
	arena := r.pageArena()
	err = ForEach(ctx, len(work), r.workerCount(), func(i int) error {
		g := work[i]
		var d *deviceSim
		st.mu.Lock()
		dc := st.inflight[g-sc.FirstDevice]
		st.mu.Unlock()
		if dc != nil {
			var rerr error
			if d, rerr = resumeDeviceSim(&sc, tmpl, arena, dc); rerr != nil {
				return rerr
			}
		} else {
			d = newDeviceSim(&sc, tmpl, arena, g)
		}
		// The deferred close releases the device's kernel and COW pages on
		// every exit, the cancellation returns inside advance included.
		defer d.close()
		if snapshots {
			// The device owes snapshots only to requests made after it
			// started: an earlier cut already holds its resumed state, or
			// has it rerun from boot.
			d.ledger, d.answered = st, st.requests.Load()
		}
		if err := d.advance(ctx); err != nil {
			// Park the interrupted device so the final cut saves its
			// progress. advance stops between event deliveries, which is a
			// valid checkpoint boundary.
			if snapshots {
				st.park(d.checkpoint())
			}
			return err
		}
		st.finish(g, d.result())
		return nil
	})
	if err != nil {
		return nil, st.cut(false), err
	}

	for i, fin := range st.finished {
		if !fin {
			return nil, st.cut(false), fmt.Errorf("fleet: device %d finished without a result", sc.FirstDevice+i)
		}
	}
	rep := &Report{
		Scenario:   sc.Name,
		Mode:       sc.Mode.String(),
		Seed:       sc.Seed,
		DurationMS: sc.DurationMS,
		PerDevice:  st.done,
	}
	rep.finalize()
	return rep, nil, nil
}
