package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// poweredScenario is testScenario under forced brownouts: every device loses
// power every 500 ms of wear and reboots from its FRAM cut 500 ms later.
func poweredScenario(devices int) Scenario {
	sc := testScenario(devices)
	sc.BrownoutEveryMS = 500
	return sc
}

// TestForcedBrownoutDeterministicAcrossWorkers is the satellite determinism
// property: a brownout at every 500 ms boundary yields byte-identical
// reports at any worker count — power loss is part of the simulated device,
// not of the host schedule.
func TestForcedBrownoutDeterministicAcrossWorkers(t *testing.T) {
	sc := poweredScenario(8)
	var golden []byte
	for _, workers := range []int{1, 2, 4} {
		r := &Runner{Workers: workers, Cache: NewBuildCache()}
		rep, err := r.Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.TotalBrownouts == 0 || rep.DevicesBrownedOut != sc.Devices {
			t.Fatalf("workers=%d: brownouts=%d over %d devices, want every device dark at least once",
				workers, rep.TotalBrownouts, rep.DevicesBrownedOut)
		}
		b := marshal(t, rep)
		if golden == nil {
			golden = b
			continue
		}
		if !bytes.Equal(golden, b) {
			t.Fatalf("workers=%d: powered report differs from workers=1 run", workers)
		}
	}
}

// TestHarvestTraceDeterministicAcrossWorkers runs a real harvest trace long
// enough to cross the supercap's brownout threshold and asserts the same
// worker-count independence.
func TestHarvestTraceDeterministicAcrossWorkers(t *testing.T) {
	sc := testScenario(3)
	sc.DurationMS = 30_000
	sc.PowerTrace = "kinetic:0.5"
	var golden []byte
	for _, workers := range []int{1, 3} {
		r := &Runner{Workers: workers, Cache: NewBuildCache()}
		rep, err := r.Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.TotalBrownouts == 0 {
			t.Fatalf("workers=%d: starving harvest trace produced no brownouts", workers)
		}
		b := marshal(t, rep)
		if golden == nil {
			golden = b
			continue
		}
		if !bytes.Equal(golden, b) {
			t.Fatalf("workers=%d: traced report differs", workers)
		}
	}
}

// TestPoweredKilledAndResumedByteIdentity extends the PR 9 acceptance
// property to intermittent power: interrupt a forced-brownout campaign
// twice (JSON round-tripping the cut each time, dark-parked devices
// included), resume, and compare byte-for-byte against an uninterrupted
// run.
func TestPoweredKilledAndResumedByteIdentity(t *testing.T) {
	sc := poweredScenario(6)
	want, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}

	var cut *CampaignCheckpoint
	for round, limit := range []int{25, 30} {
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
		t.Fatal("killed+resumed powered campaign differs from uninterrupted run")
	}
}

// TestResumeRejectsForeignPowerCut: the campaign identity check must cover
// the power configuration — a cut from a powered run may not seed an
// unpowered one, or one with different power parameters.
func TestResumeRejectsForeignPowerCut(t *testing.T) {
	sc := poweredScenario(3)
	r := &Runner{Workers: 2, Cache: NewBuildCache()}
	_, cut, err := r.RunResumable(newCancelAfter(5), sc, nil, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for name, mutate := range map[string]func(*CampaignCheckpoint){
		"trace":        func(c *CampaignCheckpoint) { c.PowerTrace = "solar" },
		"brownout":     func(c *CampaignCheckpoint) { c.BrownoutEveryMS = 0 },
		"brownout-off": func(c *CampaignCheckpoint) { c.BrownoutOffMS = 777 },
	} {
		bad := *cut
		mutate(&bad)
		if _, _, err := r.RunResumable(context.Background(), sc, &bad, nil); err == nil {
			t.Errorf("%s-mutated cut accepted", name)
		}
	}
}
