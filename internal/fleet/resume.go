package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

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
// kernel plus the segment-loop cursors advance needs to continue it.
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

// matches rejects cuts taken from a different campaign.
func (ck *CampaignCheckpoint) matches(sc *Scenario) error {
	if ck.Scenario != sc.Name || ck.Mode != sc.Mode.String() ||
		ck.Seed != sc.Seed || ck.DurationMS != sc.DurationMS ||
		ck.FirstDevice != sc.FirstDevice || ck.Devices != sc.Devices ||
		ck.PowerTrace != sc.PowerTrace || ck.BrownoutEveryMS != sc.BrownoutEveryMS ||
		ck.BrownoutOffMS != sc.BrownoutOffMS {
		return fmt.Errorf("fleet: checkpoint is for campaign %q/%s seed=%d dur=%d devices=[%d,%d), not this scenario",
			ck.Scenario, ck.Mode, ck.Seed, ck.DurationMS, ck.FirstDevice, ck.FirstDevice+ck.Devices)
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

// ResumableOptions tunes RunResumable's snapshot behavior.
type ResumableOptions struct {
	// SegmentMS is the virtual-time interval between per-device snapshot
	// refreshes. 0 snapshots only at cancellation — cheapest, but a killed
	// process reruns interrupted devices from boot.
	SegmentMS uint64
	// Sink, when set, receives periodic consistent cuts every Flush of real
	// time (and does not receive the final cut — RunResumable returns that).
	// Calls are serialized; the cut is the callback's to keep.
	Sink  func(*CampaignCheckpoint)
	Flush time.Duration
}

// campaignState is the shared progress ledger a resumable run's workers and
// flusher coordinate through, keyed by global device index.
type campaignState struct {
	sc *Scenario

	mu       sync.Mutex
	done     map[int]DeviceResult
	inflight map[int]*DeviceCheckpoint
}

// cut assembles a consistent CampaignCheckpoint from the current ledger.
func (st *campaignState) cut() *CampaignCheckpoint {
	st.mu.Lock()
	defer st.mu.Unlock()
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
	for _, res := range st.done {
		ck.Done = append(ck.Done, res)
	}
	sort.Slice(ck.Done, func(i, j int) bool { return ck.Done[i].Device < ck.Done[j].Device })
	for _, dc := range st.inflight {
		ck.InFlight = append(ck.InFlight, *dc)
	}
	sort.Slice(ck.InFlight, func(i, j int) bool { return ck.InFlight[i].Device < ck.InFlight[j].Device })
	return ck
}

func (st *campaignState) park(dc *DeviceCheckpoint) {
	st.mu.Lock()
	st.inflight[dc.Device] = dc
	st.mu.Unlock()
}

func (st *campaignState) finish(device int, res DeviceResult) {
	st.mu.Lock()
	st.done[device] = res
	delete(st.inflight, device)
	st.mu.Unlock()
}

// RunResumable runs the scenario like Run, continuing from a prior cut when
// one is supplied. On success it returns the finished report — byte-identical
// to Run's, no matter how many kill/resume cycles the campaign went through.
// On cancellation it returns a final consistent cut alongside ctx's error;
// persist it and pass it back to continue. Snapshots are skipped for
// FaultTrace scenarios (the flight-recorder ring is not serializable, so a
// resumed trace would differ): those devices always rerun from boot.
func (r *Runner) RunResumable(ctx context.Context, sc Scenario, prior *CampaignCheckpoint, opt ResumableOptions) (*Report, *CampaignCheckpoint, error) {
	if err := sc.validate(); err != nil {
		return nil, nil, err
	}
	cache := r.Cache
	if cache == nil {
		cache = NewBuildCache()
	}
	tmpl, err := cache.Template(sc.Apps, sc.Mode)
	if err != nil {
		return nil, nil, err
	}

	st := &campaignState{
		sc:       &sc,
		done:     make(map[int]DeviceResult),
		inflight: make(map[int]*DeviceCheckpoint),
	}
	snapshots := !sc.FaultTrace
	if prior != nil {
		if err := prior.matches(&sc); err != nil {
			return nil, nil, err
		}
		for _, res := range prior.Done {
			st.done[res.Device] = res
		}
		if snapshots {
			for i := range prior.InFlight {
				dc := prior.InFlight[i]
				st.inflight[dc.Device] = &dc
			}
		}
	}

	// The worklist is every device without a finished result, in index order.
	var work []int
	for g := sc.FirstDevice; g < sc.FirstDevice+sc.Devices; g++ {
		if _, ok := st.done[g]; !ok {
			work = append(work, g)
		}
	}

	if opt.Sink != nil && opt.Flush > 0 {
		stop := make(chan struct{})
		flushed := make(chan struct{})
		go func() {
			defer close(flushed)
			tick := time.NewTicker(opt.Flush)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					opt.Sink(st.cut())
				case <-stop:
					return
				}
			}
		}()
		defer func() { close(stop); <-flushed }()
	}

	segment := opt.SegmentMS
	if segment == 0 || !snapshots {
		segment = sc.DurationMS
	}
	workers := r.workerCount()
	arena := r.pageArena()
	err = ForEachBatch(ctx, len(work), workers, chunkFor(len(work), workers), func(i int) error {
		g := work[i]
		var d *deviceSim
		st.mu.Lock()
		dc := st.inflight[g]
		st.mu.Unlock()
		if dc != nil {
			var rerr error
			if d, rerr = resumeDeviceSim(&sc, tmpl, arena, dc); rerr != nil {
				return rerr
			}
		} else {
			d = newDeviceSim(&sc, tmpl, arena, g)
		}
		defer d.close()
		for !d.finished() {
			if err := d.advance(ctx, d.now+segment); err != nil {
				// Park the interrupted device so the final cut saves its
				// progress. advance stops between event deliveries, which is
				// a valid checkpoint boundary even mid-segment.
				if snapshots {
					st.park(d.checkpoint())
				}
				return err
			}
			if snapshots && !d.finished() {
				st.park(d.checkpoint())
			}
		}
		st.finish(g, d.result())
		return nil
	})
	if err != nil {
		return nil, st.cut(), err
	}

	results := make([]DeviceResult, 0, sc.Devices)
	for g := sc.FirstDevice; g < sc.FirstDevice+sc.Devices; g++ {
		res, ok := st.done[g]
		if !ok {
			return nil, st.cut(), fmt.Errorf("fleet: device %d finished without a result", g)
		}
		results = append(results, res)
	}
	rep := &Report{
		Scenario:   sc.Name,
		Mode:       sc.Mode.String(),
		Seed:       sc.Seed,
		DurationMS: sc.DurationMS,
		PerDevice:  results,
	}
	rep.finalize()
	return rep, nil, nil
}
