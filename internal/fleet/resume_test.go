package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/kernel"
)

// cancelAfter is a deterministic cancellation source: its Err starts
// returning context.Canceled after the limit-th poll, wherever in the run
// that poll lands. Unlike a timer-based cancel, the same limit interrupts
// the same scenario at the same place every time.
type cancelAfter struct {
	context.Context
	mu     sync.Mutex
	checks int
	limit  int
}

func newCancelAfter(limit int) *cancelAfter {
	return &cancelAfter{Context: context.Background(), limit: limit}
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks++
	if c.checks > c.limit {
		return context.Canceled
	}
	return nil
}

// TestCancelledSimulateReleasesPages is the leak regression: a device whose
// simulation is cancelled mid-window must still hand its dirty COW pages
// back to the arena. Early returns in an older device loop skipped
// ReleasePages, so every cancelled device leaked its pages permanently.
func TestCancelledSimulateReleasesPages(t *testing.T) {
	sc := testScenario(1)
	cache := NewBuildCache()
	for _, limit := range []int{1, 2, 3} {
		r := &Runner{Workers: 1, Cache: cache}
		if _, err := r.Run(newCancelAfter(limit), sc); err != context.Canceled {
			t.Fatalf("limit=%d: err = %v, want context.Canceled", limit, err)
		}
		// Every page the cancelled device dirtied must be back in the arena:
		// the free list is exactly the pages it released (nothing else ran).
		if free := r.pageArena().FreePages(); free == 0 {
			t.Fatalf("limit=%d: cancelled device returned no pages to the arena", limit)
		}
	}
}

// TestCancelledRunReleasesPages checks the same invariant through the public
// Runner path: after a cancelled Run on a warmed arena, every page borrowed
// from the free list came back (free count did not shrink).
func TestCancelledRunReleasesPages(t *testing.T) {
	sc := testScenario(6)
	r := &Runner{Workers: 2, Cache: NewBuildCache()}
	if _, err := r.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	freeBefore := r.pageArena().FreePages()
	if freeBefore == 0 {
		t.Fatal("warm-up run parked no pages")
	}
	if _, err := r.Run(newCancelAfter(20), sc); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if free := r.pageArena().FreePages(); free < freeBefore {
		t.Fatalf("cancelled run leaked pages: free %d -> %d", freeBefore, free)
	}
	gets, puts := r.ArenaStats()
	if gets == 0 || puts == 0 {
		t.Fatalf("arena did not cycle (gets=%d puts=%d)", gets, puts)
	}
}

// TestRunResumableMatchesRun: with no prior cut and no interruptions, the
// resumable path must be byte-identical to Run, and a cutter that is never
// cut must cost no snapshots.
func TestRunResumableMatchesRun(t *testing.T) {
	sc := testScenario(5)
	want, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, cutter := range []*Cutter{nil, new(Cutter)} {
		r := &Runner{Workers: 2, Cache: NewBuildCache()}
		before := mSnapshots.Value()
		rep, cut, err := r.RunResumable(context.Background(), sc, nil, cutter)
		if err != nil {
			t.Fatalf("cutter=%v: %v", cutter != nil, err)
		}
		// Nothing cut the run and nothing cancelled it: no device owed a
		// snapshot.
		if n := mSnapshots.Value() - before; n != 0 {
			t.Fatalf("cutter=%v: run nobody cut took %d snapshots", cutter != nil, n)
		}
		if cut != nil {
			t.Fatalf("cutter=%v: successful run returned a cut", cutter != nil)
		}
		if !bytes.Equal(marshal(t, rep), marshal(t, want)) {
			t.Fatalf("cutter=%v: resumable report differs from Run", cutter != nil)
		}
		if cutter != nil && cutter.Cut() != nil {
			t.Fatal("cutter still cuts after its run returned")
		}
	}
}

// TestKilledAndResumedCampaignByteIdentity is the tentpole acceptance
// property: interrupt a campaign (twice), JSON round-trip the cut each time
// as a daemon restart would, resume, and compare the final report
// byte-for-byte against an uninterrupted run.
func TestKilledAndResumedCampaignByteIdentity(t *testing.T) {
	sc := testScenario(8)
	want, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}

	var cut *CampaignCheckpoint
	for round, limit := range []int{12, 12} {
		r := &Runner{Workers: 2, Cache: NewBuildCache()}
		rep, c, err := r.RunResumable(newCancelAfter(limit), sc, cut, nil)
		if err != context.Canceled {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
		}
		if rep != nil {
			t.Fatalf("round %d: cancelled run returned a report", round)
		}
		if c == nil {
			t.Fatalf("round %d: cancelled run returned no cut", round)
		}
		// Round-trip through JSON — the form a daemon's state file holds.
		wire, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("round %d: marshal cut: %v", round, err)
		}
		cut = new(CampaignCheckpoint)
		if err := json.Unmarshal(wire, cut); err != nil {
			t.Fatalf("round %d: unmarshal cut: %v", round, err)
		}
	}
	if len(cut.Done)+len(cut.InFlight) == 0 {
		t.Fatal("two interrupted rounds made no checkpointable progress")
	}

	r := &Runner{Workers: 3, Cache: NewBuildCache()}
	rep, c, err := r.RunResumable(context.Background(), sc, cut, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c != nil {
		t.Fatal("finished resume returned a cut")
	}
	if !bytes.Equal(marshal(t, rep), marshal(t, want)) {
		t.Fatal("killed+resumed campaign differs from uninterrupted run")
	}
}

// TestResumableFaultTraceRerunsFromBoot: fault-trace scenarios cannot
// snapshot (the recorder ring is not serializable) — a cancelled run's cut
// must carry no in-flight state, and resuming must still converge on the
// uninterrupted bytes by rerunning interrupted devices.
func TestResumableFaultTraceRerunsFromBoot(t *testing.T) {
	sc := testScenario(4)
	sc.FaultTrace = true
	want, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Workers: 2, Cache: NewBuildCache()}
	_, cut, err := r.RunResumable(newCancelAfter(15), sc, nil, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(cut.InFlight) != 0 {
		t.Fatalf("fault-trace cut carries %d in-flight snapshots", len(cut.InFlight))
	}
	rep, _, err := r.RunResumable(context.Background(), sc, cut, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, rep), marshal(t, want)) {
		t.Fatal("resumed fault-trace campaign differs from uninterrupted run")
	}
}

// TestRunResumableRejectsForeignCut covers the identity validation.
func TestRunResumableRejectsForeignCut(t *testing.T) {
	sc := testScenario(3)
	r := &Runner{Workers: 2, Cache: NewBuildCache()}
	_, cut, err := r.RunResumable(newCancelAfter(5), sc, nil, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for name, mutate := range map[string]func(*CampaignCheckpoint){
		"scenario": func(c *CampaignCheckpoint) { c.Scenario = "other" },
		"mode":     func(c *CampaignCheckpoint) { c.Mode = "NoIsolation" },
		"seed":     func(c *CampaignCheckpoint) { c.Seed++ },
		"duration": func(c *CampaignCheckpoint) { c.DurationMS++ },
		"shard":    func(c *CampaignCheckpoint) { c.FirstDevice++ },
		"devices":  func(c *CampaignCheckpoint) { c.Devices++ },
		"done outside shard": func(c *CampaignCheckpoint) {
			c.Done = append(c.Done[:len(c.Done):len(c.Done)], DeviceResult{Device: sc.FirstDevice + sc.Devices})
		},
		"in-flight outside shard": func(c *CampaignCheckpoint) {
			c.InFlight = append(c.InFlight[:len(c.InFlight):len(c.InFlight)], DeviceCheckpoint{Device: sc.FirstDevice - 1})
		},
	} {
		bad := *cut
		mutate(&bad)
		if _, _, err := r.RunResumable(context.Background(), sc, &bad, nil); err == nil {
			t.Errorf("%s-mutated cut accepted", name)
		}
	}
}

// slowCtx never cancels, but every every-th poll sleeps: workers poll
// between event batches, so it stretches a run over enough wall time for
// many cuts.
type slowCtx struct {
	context.Context
	every int64
	polls atomic.Int64
}

func (c *slowCtx) Err() error {
	if c.polls.Add(1)%c.every == 0 {
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// periodicCuts runs sc resumably, slowed down, with a test goroutine taking
// a cut every millisecond, and returns every cut taken, JSON round-tripped as
// a daemon persists them, plus the finished report.
func periodicCuts(t *testing.T, sc Scenario, workers int, every int64) ([]*CampaignCheckpoint, *Report) {
	t.Helper()
	var cutter Cutter
	stop := make(chan struct{})
	taken := make(chan [][]byte)
	go func() {
		var wires [][]byte
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if c := cutter.Cut(); c != nil {
					wire, err := json.Marshal(c)
					if err != nil {
						panic(err)
					}
					wires = append(wires, wire)
				}
			case <-stop:
				taken <- wires
				return
			}
		}
	}()
	r := &Runner{Workers: workers, Cache: NewBuildCache()}
	ctx := &slowCtx{Context: context.Background(), every: every}
	start := time.Now()
	rep, _, err := r.RunResumable(ctx, sc, nil, &cutter)
	close(stop)
	wires := <-taken
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %d polls, %v, %d cuts", sc.Name, ctx.polls.Load(), time.Since(start), len(wires))
	cuts := make([]*CampaignCheckpoint, len(wires))
	for i, wire := range wires {
		cuts[i] = new(CampaignCheckpoint)
		if err := json.Unmarshal(wire, cuts[i]); err != nil {
			t.Fatal(err)
		}
	}
	return cuts, rep
}

// TestPeriodicCutsCarryInFlight: snapshots are taken on request, so a run
// cut often enough must still yield cuts with in-flight devices, and
// resuming such a cut must reproduce Run's bytes.
func TestPeriodicCutsCarryInFlight(t *testing.T) {
	sc := testScenario(4)
	sc.DurationMS = 60_000
	want, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	before := mSnapshots.Value()
	cuts, rep := periodicCuts(t, sc, 2, 2)
	if !bytes.Equal(marshal(t, rep), marshal(t, want)) {
		t.Fatal("periodically cut run differs from Run")
	}
	var last *CampaignCheckpoint
	carrying := 0
	for _, c := range cuts {
		if len(c.InFlight) > 0 {
			last = c
			carrying++
		}
	}
	if last == nil {
		t.Fatalf("none of %d periodic cuts carries an in-flight device", len(cuts))
	}
	t.Logf("%d of %d cuts carry in-flight devices", carrying, len(cuts))
	if mSnapshots.Value() == before {
		t.Fatal("in-flight cuts but the snapshot counter did not move")
	}
	rep, _, err = (&Runner{Workers: 3, Cache: NewBuildCache()}).RunResumable(context.Background(), sc, last, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, rep), marshal(t, want)) {
		t.Fatal("campaign resumed from a periodic cut differs from Run")
	}
}

// TestPoweredPeriodicCutsParkDark is the powered variant: some periodic cut
// of each powered golden must park a device dark (no kernel, FRAM state in
// Power.Cut), and resuming every such cut must reproduce the golden.
func TestPoweredPeriodicCutsParkDark(t *testing.T) {
	for _, g := range poweredGoldens(t) {
		want, err := os.ReadFile("testdata/" + g.file)
		if err != nil {
			t.Fatal(err)
		}
		// Workers poll about once per 50 device-milliseconds here: sleep on
		// ~300 polls whatever the golden's length, so even with exact
		// 200 µs sleeps the run spans dozens of cuts.
		every := int64(g.sc.DurationMS*uint64(g.sc.Devices)/15_000) + 1
		cuts, rep := periodicCuts(t, g.sc, 1, every)
		if got := cliJSON(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("%s: periodically cut run differs from the golden", g.file)
		}
		var dark []int
		for i, c := range cuts {
			for _, dc := range c.InFlight {
				if dc.Kernel == nil && dc.Power != nil && dc.Power.Cut != nil {
					dark = append(dark, i)
					break
				}
			}
		}
		if len(dark) == 0 {
			t.Fatalf("%s: none of %d periodic cuts parked a dark device", g.file, len(cuts))
		}
		// Resume the first, middle and last of them.
		for _, i := range []int{dark[0], dark[len(dark)/2], dark[len(dark)-1]} {
			c := cuts[i]
			rep, _, err := (&Runner{Workers: 2, Cache: NewBuildCache()}).RunResumable(context.Background(), g.sc, c, nil)
			if err != nil {
				t.Fatalf("%s cut %d: resume: %v", g.file, i, err)
			}
			if got := cliJSON(t, rep); !bytes.Equal(got, want) {
				t.Fatalf("%s cut %d: resumed report differs from the golden", g.file, i)
			}
		}
		t.Logf("%s: %d cuts, %d with a dark device", g.file, len(cuts), len(dark))
	}
}

// churnScenario is a fleetd churn job's shard: three apps on devices that
// live 3 s and brown out every 400 ms, dark for 100 ms each time.
func churnScenario(devices int) Scenario {
	var list []apps.App
	for _, name := range []string{"pedometer", "hr", "clock"} {
		a, _ := apps.ByName(name)
		list = append(list, a)
	}
	return Scenario{
		Name: "churn", Apps: list, Mode: cc.ModeMPU, DurationMS: 3000,
		Devices: devices, Seed: 7, BrownoutEveryMS: 400, BrownoutOffMS: 100,
		Policy: &kernel.RestartPolicy{MaxFaults: 3, BackoffMS: 1000},
	}
}

// TestShardAllocsIndependentOfDevices guards the allocation-free device: on
// a warm runner, a churn shard of 64 devices allocates at most a few objects
// more than one of 32. Kernels and pages come from the runner's arena, the
// devices from one slab per run, their fault lists from chunks that grow by
// doubling, and the report's aggregates from one scratch buffer.
func TestShardAllocsIndependentOfDevices(t *testing.T) {
	r := &Runner{Workers: 2, Cache: NewBuildCache()}
	ctx := context.Background()
	allocs := func(devices int) float64 {
		sc := churnScenario(devices)
		return testing.AllocsPerRun(3, func() {
			if _, _, err := r.RunResumable(ctx, sc, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(32), allocs(64)
	if large-small > 8 {
		t.Errorf("a 64-device shard costs %.0f allocations, a 32-device one %.0f: %.0f per extra device, want the difference <= 8",
			large, small, (large-small)/32)
	}
}
