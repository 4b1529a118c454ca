package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/kernel"
)

// fleetGolden is one scenario whose `amuletfleet -json` report is pinned
// byte for byte in testdata. The scenarios mirror the CLI flags in args, so
// a golden can be regenerated with
//
//	go run ./cmd/amuletfleet <args> > internal/fleet/testdata/<file>
type fleetGolden struct {
	file string
	args string
	sc   Scenario
}

func poweredGoldens(t *testing.T) []fleetGolden {
	t.Helper()
	var list []apps.App
	for _, name := range []string{"pedometer", "hr", "clock"} {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("no bundled app %q", name)
		}
		list = append(list, app)
	}
	policy := &kernel.RestartPolicy{MaxFaults: 3, BackoffMS: 1000}
	return []fleetGolden{
		{
			file: "golden_brownout.json",
			args: "-name golden-brownout -apps pedometer,hr,clock -devices 8 -ms 3000 -seed 7 -button-every 700 -fault-every 1100 -fault-app 1 -brownout-every 400 -brownout-off 100 -json",
			sc: Scenario{
				Name: "golden-brownout", Apps: list, Mode: cc.ModeMPU,
				DurationMS: 3000, Devices: 8, Seed: 7,
				ButtonEveryMS: 700, FaultEveryMS: 1100, FaultApp: 1,
				BrownoutEveryMS: 400, BrownoutOffMS: 100, Policy: policy,
			},
		},
		{
			file: "golden_solar.json",
			args: "-name golden-solar -apps pedometer,hr,clock -devices 4 -ms 60000 -seed 7 -button-every 1300 -power-trace solar -json",
			sc: Scenario{
				Name: "golden-solar", Apps: list, Mode: cc.ModeMPU,
				DurationMS: 60_000, Devices: 4, Seed: 7,
				ButtonEveryMS: 1300, PowerTrace: "solar", Policy: policy,
			},
		},
	}
}

// suiteGoldens are the nine-app suite on a stable supply, as `amuletfleet`
// runs it by default (mode MPU, seed 1, restart policy 3 faults / 1 s): the
// plain button-driven fleet, and a faulting one whose report carries every
// device's fault lists and flight-recorder window.
func suiteGoldens() []fleetGolden {
	policy := &kernel.RestartPolicy{MaxFaults: 3, BackoffMS: 1000}
	return []fleetGolden{
		{
			file: "golden_suite.json",
			args: "-devices 24 -ms 20000 -button-every 3000 -json",
			sc: Scenario{
				Name: "fleet", Apps: apps.Suite(), Mode: cc.ModeMPU,
				DurationMS: 20_000, Devices: 24, Seed: 1,
				ButtonEveryMS: 3000, Policy: policy,
			},
		},
		{
			file: "golden_faulttrace.json",
			args: "-devices 8 -ms 10000 -button-every 3000 -fault-every 2300 -fault-app 1 -fault-trace -json",
			sc: Scenario{
				Name: "fleet", Apps: apps.Suite(), Mode: cc.ModeMPU,
				DurationMS: 10_000, Devices: 8, Seed: 1,
				ButtonEveryMS: 3000, FaultEveryMS: 2300, FaultApp: 1,
				FaultTrace: true, Policy: policy,
			},
		},
	}
}

// TestSuiteGoldens: both suite scenarios reproduce their recorded CLI
// reports byte for byte at 1 and 4 workers, and sharded in two halves
// merged as fleetd merges shards.
func TestSuiteGoldens(t *testing.T) {
	for _, g := range suiteGoldens() {
		t.Run(g.file, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + g.file)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				rep, err := (&Runner{Workers: workers, Cache: NewBuildCache()}).Run(context.Background(), g.sc)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := cliJSON(t, rep); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: report differs from the golden (amuletfleet %s)", workers, g.args)
				}
			}
			r := &Runner{Workers: 2, Cache: NewBuildCache()}
			var merged *Report
			for _, half := range [][2]int{{0, g.sc.Devices / 2}, {g.sc.Devices / 2, g.sc.Devices}} {
				sc := g.sc
				sc.FirstDevice, sc.Devices = half[0], half[1]-half[0]
				rep, err := r.Run(context.Background(), sc)
				if err != nil {
					t.Fatal(err)
				}
				if merged == nil {
					merged = rep
				} else if err := merged.Merge(rep); err != nil {
					t.Fatal(err)
				}
			}
			if got := cliJSON(t, merged); !bytes.Equal(got, want) {
				t.Fatal("merged halves differ from the golden")
			}
		})
	}
}

// cliJSON renders a report exactly as `amuletfleet -json` prints it.
func cliJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	return append(marshal(t, r), '\n')
}

// TestPoweredGoldens: both powered scenarios reproduce their recorded CLI
// reports byte for byte under COW and the flat oracle, at 1 and 4 workers.
// The goldens predate the in-place power cycle, so they pin its reports to
// those of the checkpoint/cut/fresh-boot path it replaced.
func TestPoweredGoldens(t *testing.T) {
	for _, g := range poweredGoldens(t) {
		want, err := os.ReadFile("testdata/" + g.file)
		if err != nil {
			t.Fatal(err)
		}
		for _, cow := range []bool{true, false} {
			sc := g.sc
			sc.Engine.NoCOW = !cow
			for _, workers := range []int{1, 4} {
				r := &Runner{Workers: workers, Cache: NewBuildCache()}
				rep, err := r.Run(context.Background(), sc)
				if err != nil {
					t.Fatalf("%s cow=%v workers=%d: %v", g.file, cow, workers, err)
				}
				if got := cliJSON(t, rep); !bytes.Equal(got, want) {
					t.Fatalf("%s cow=%v workers=%d: report differs from the golden (amuletfleet %s)",
						g.file, cow, workers, g.args)
				}
			}
		}
	}
}

// TestPoweredGoldensKillResume interrupts each powered campaign at a spread
// of deterministic points, round-trips the final cut through JSON as a
// daemon would persist it, and resumes it to completion: every resumed
// report must be the golden's bytes, and at least one cut must park a dark
// device (no kernel, FRAM state in Power.Cut).
func TestPoweredGoldensKillResume(t *testing.T) {
	for _, g := range poweredGoldens(t) {
		want, err := os.ReadFile("testdata/" + g.file)
		if err != nil {
			t.Fatal(err)
		}
		darkCuts := 0
		for limit := 1; limit < 6000; limit = limit*3/2 + 1 {
			tag := fmt.Sprintf("%s limit=%d", g.file, limit)
			r := &Runner{Workers: 1, Cache: NewBuildCache()}
			rep, cut, err := r.RunResumable(newCancelAfter(limit), g.sc, nil, nil)
			if err == nil {
				if got := cliJSON(t, rep); !bytes.Equal(got, want) {
					t.Fatalf("%s: uninterrupted resumable run differs from the golden", tag)
				}
				break
			}
			for _, dc := range cut.InFlight {
				if dc.Kernel == nil && dc.Power != nil && dc.Power.Cut != nil {
					darkCuts++
				}
			}
			wire, err := json.Marshal(cut)
			if err != nil {
				t.Fatal(err)
			}
			var decoded CampaignCheckpoint
			if err := json.Unmarshal(wire, &decoded); err != nil {
				t.Fatal(err)
			}
			rep, _, err = (&Runner{Workers: 2, Cache: NewBuildCache()}).RunResumable(context.Background(), g.sc, &decoded, nil)
			if err != nil {
				t.Fatalf("%s: resume: %v", tag, err)
			}
			if got := cliJSON(t, rep); !bytes.Equal(got, want) {
				t.Fatalf("%s: resumed report differs from the golden", tag)
			}
		}
		if darkCuts == 0 {
			t.Fatalf("%s: no interruption parked a dark device; the dark-resume path went untested", g.file)
		}
	}
}
