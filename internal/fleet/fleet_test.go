package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/kernel"
)

// testScenario is a small but non-trivial fleet: two interacting apps, a
// button schedule and periodic fault injection, so determinism is tested
// against every moving part at once.
func testScenario(devices int) Scenario {
	pedometer, _ := apps.ByName("pedometer")
	hr, _ := apps.ByName("hr")
	return Scenario{
		Name:          "test",
		Apps:          []apps.App{pedometer, hr},
		Mode:          cc.ModeMPU,
		DurationMS:    5_000,
		Devices:       devices,
		Seed:          42,
		ButtonEveryMS: 1_700,
		FaultEveryMS:  2_300,
		FaultApp:      1,
		Policy:        &kernel.RestartPolicy{MaxFaults: 3, BackoffMS: 400},
	}
}

// marshal serializes a report the way cmd/amuletfleet -json does.
func marshal(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFleetDeterministicAcrossRunsAndWorkers(t *testing.T) {
	sc := testScenario(12)
	var golden []byte
	for _, workers := range []int{1, 3, 8} {
		r := &Runner{Workers: workers}
		rep, err := r.Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b := marshal(t, rep)
		if golden == nil {
			golden = b
			continue
		}
		if !bytes.Equal(golden, b) {
			t.Fatalf("workers=%d: report differs from workers=1 run", workers)
		}
	}
	// Same seed, fresh runner: byte-identical again.
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, marshal(t, rep)) {
		t.Fatal("repeated run with the same seed produced a different report")
	}
}

func TestFleetSeedDecorrelatesDevices(t *testing.T) {
	sc := testScenario(6)
	sc.FaultEveryMS = 0
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Devices != 6 {
		t.Fatalf("devices = %d, want 6", rep.Devices)
	}
	seeds := map[uint32]bool{}
	distinctCycles := map[uint64]bool{}
	for _, d := range rep.PerDevice {
		seeds[d.Seed] = true
		distinctCycles[d.Cycles] = true
		if d.Dispatches == 0 || d.Cycles == 0 {
			t.Fatalf("device %d did not run: %+v", d.Device, d)
		}
	}
	if len(seeds) != 6 {
		t.Fatalf("expected 6 distinct device seeds, got %d", len(seeds))
	}
	// The seeded sensor noise must actually decorrelate workloads: with six
	// devices reading HR samples, at least two should differ in cycles.
	if len(distinctCycles) < 2 {
		t.Error("all devices consumed identical cycles; seeds appear unused")
	}
	// A different fleet seed must shift per-device seeds.
	sc2 := sc
	sc2.Seed = 43
	rep2, err := Run(context.Background(), sc2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.PerDevice[0].Seed == rep.PerDevice[0].Seed {
		t.Error("fleet seed change did not change device seeds")
	}
}

func TestBuildCacheCompilesOnce(t *testing.T) {
	cache := NewBuildCache()
	pedometer, _ := apps.ByName("pedometer")
	list := []apps.App{pedometer}

	const callers = 8
	var wg sync.WaitGroup
	fws := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fw, err := cache.Get(list, cc.ModeMPU)
			if err != nil {
				t.Error(err)
				return
			}
			fws[i] = fw
		}(i)
	}
	wg.Wait()
	builds, hits := cache.Stats()
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	if hits != callers-1 {
		t.Fatalf("hits = %d, want %d", hits, callers-1)
	}
	for i := 1; i < callers; i++ {
		if fws[i] != fws[0] {
			t.Fatal("cache handed out different firmware instances for one key")
		}
	}
	// A different mode is a different key.
	if _, err := cache.Get(list, cc.ModeSoftwareOnly); err != nil {
		t.Fatal(err)
	}
	if builds, _ := cache.Stats(); builds != 2 {
		t.Fatalf("builds after second mode = %d, want 2", builds)
	}
}

// TestFleetSharesPredecodedText asserts the decode-once property at fleet
// scale: every kernel booted from a cached build executes from the one
// Program the firmware carries, so decode cost is paid once per
// (app set, mode), not once per device.
func TestFleetSharesPredecodedText(t *testing.T) {
	cache := NewBuildCache()
	pedometer, _ := apps.ByName("pedometer")
	list := []apps.App{pedometer}
	fw, err := cache.Get(list, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	if fw.Text == nil {
		t.Fatal("cached firmware has no predecoded text")
	}
	k1 := kernel.NewSeeded(fw, 1)
	k2 := kernel.NewSeeded(fw, 2)
	if k1.CPU.Program() != fw.Text || k2.CPU.Program() != fw.Text {
		t.Fatal("kernels do not share the firmware's predecode cache")
	}
	// The shared cache must survive a device's workload untouched: run one
	// device and confirm the other still points at the same immutable cache.
	k1.RunUntil(1_000)
	if k2.CPU.Program() != fw.Text {
		t.Fatal("running one device perturbed another's cache attachment")
	}
}

func TestFaultInjectionExercisesRestartPolicy(t *testing.T) {
	sc := testScenario(4)
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	// 2300 and 4600 ms injections within the 5000 ms window: two faults per
	// device, both within MaxFaults, so the app restarts each time.
	if rep.TotalFaults != 2*4 {
		t.Fatalf("total faults = %d, want 8", rep.TotalFaults)
	}
	if rep.DevicesFaulted != 4 {
		t.Fatalf("devices faulted = %d, want 4", rep.DevicesFaulted)
	}
	if rep.FaultReasons["fleet: injected fault"] != 8 {
		t.Fatalf("fault histogram = %v", rep.FaultReasons)
	}
	for _, d := range rep.PerDevice {
		if d.AppsAlive != 2 {
			t.Fatalf("device %d: %d apps alive, want 2 (restart policy should revive)", d.Device, d.AppsAlive)
		}
	}
	// With a kill-on-first-fault policy the app must stay dead.
	sc.Policy = &kernel.RestartPolicy{MaxFaults: 0}
	rep, err = Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.PerDevice {
		if d.AppsAlive != 1 {
			t.Fatalf("device %d: %d apps alive, want 1 (no-restart policy)", d.Device, d.AppsAlive)
		}
	}
	if rep.TotalFaults != 4 {
		t.Fatalf("total faults = %d, want 4 (dead apps cannot re-fault)", rep.TotalFaults)
	}
}

func TestReportMerge(t *testing.T) {
	sc := testScenario(8)
	full, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	shard := func(devs []DeviceResult) *Report {
		return &Report{
			Scenario: full.Scenario, Mode: full.Mode, Seed: full.Seed,
			DurationMS: full.DurationMS,
			PerDevice:  append([]DeviceResult(nil), devs...),
		}
	}
	a := shard(full.PerDevice[:3])
	b := shard(full.PerDevice[3:])
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, a), marshal(t, full)) {
		t.Fatal("merged shards differ from the union run")
	}
	// The cross-machine path: two independent runs of disjoint device
	// ranges (via FirstDevice) must merge into exactly the union run.
	lo, hi := sc, sc
	lo.Devices = 3
	hi.Devices = 5
	hi.FirstDevice = 3
	repLo, err := Run(context.Background(), lo)
	if err != nil {
		t.Fatal(err)
	}
	repHi, err := Run(context.Background(), hi)
	if err != nil {
		t.Fatal(err)
	}
	if err := repLo.Merge(repHi); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, repLo), marshal(t, full)) {
		t.Fatal("sharded runs merged differently from the union run")
	}
	// Overlapping shards must be rejected.
	if err := a.Merge(shard(full.PerDevice[4:5])); err == nil {
		t.Fatal("overlap merge succeeded")
	}
	// Mismatched scenarios must be rejected.
	other := shard(nil)
	other.Seed++
	if err := a.Merge(other); err == nil {
		t.Fatal("cross-scenario merge succeeded")
	}
}

func TestScenarioValidation(t *testing.T) {
	pedometer, _ := apps.ByName("pedometer")
	cases := []Scenario{
		{},
		{Apps: []apps.App{pedometer}, DurationMS: 100},
		{Apps: []apps.App{pedometer}, Devices: 1},
		{Apps: []apps.App{pedometer}, Devices: 1, DurationMS: 100,
			FaultEveryMS: 10, FaultApp: 5},
		{Apps: []apps.App{pedometer}, Devices: 1, DurationMS: 100, FirstDevice: -1},
		{Apps: []apps.App{pedometer}, Devices: 1, DurationMS: 100,
			Events: []ScheduledEvent{{AtMS: 10, App: 5, Code: 1}}},
		{Apps: []apps.App{pedometer, pedometer}, Devices: 1, DurationMS: 100},
	}
	for i, sc := range cases {
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted an invalid scenario", i)
		}
		if _, err := Run(context.Background(), sc); err == nil {
			t.Errorf("case %d: Run accepted an invalid scenario", i)
		}
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := testScenario(64)
	if _, err := Run(ctx, sc); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}
