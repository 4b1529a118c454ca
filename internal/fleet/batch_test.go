package fleet

import (
	"bytes"
	"context"
	"testing"

	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/kernel"
)

// runReport simulates sc with the given worker count and returns the
// serialized report.
func runReport(t *testing.T, sc Scenario, workers int) []byte {
	t.Helper()
	r := &Runner{Workers: workers}
	rep, err := r.Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return marshal(t, rep)
}

// TestWatchdogMidBatch sweeps the per-event watchdog budget so handler kills
// land at arbitrary points of the wear window — including mid-batch — and
// asserts batch boundaries neither starve the watchdog nor the periodic
// schedule: every sweep point stays byte-identical across parallelism,
// watchdog faults do occur, and the periodic schedule keeps
// delivering after the kills.
func TestWatchdogMidBatch(t *testing.T) {
	base := Scenario{
		Name:       "watchdog-sweep",
		Apps:       []apps.App{apps.Synthetic()},
		Mode:       cc.ModeMPU,
		DurationMS: 4_000,
		Devices:    6,
		Seed:       9,
		Events: []ScheduledEvent{
			{AtMS: 100, App: 0, Code: apps.EvMemOps, Arg: 400, PeriodMS: 150},
		},
		Policy: &kernel.RestartPolicy{MaxFaults: 1000, BackoffMS: 50},
	}
	sawWatchdog := false
	for _, budget := range []uint64{6_000, 12_000, 40_000, 5_000_000} {
		sc := base
		sc.WatchdogBudget = budget
		golden := runReport(t, sc, 1)
		if !bytes.Equal(golden, runReport(t, sc, 8)) {
			t.Fatalf("budget=%d: batched report differs across worker counts", budget)
		}

		rep, err := (&Runner{Workers: 4}).Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FaultClasses["watchdog"] > 0 {
			sawWatchdog = true
			// The periodic schedule must survive the kills: far more events
			// than the initial EvInit + first period implies.
			wantAtLeast := rep.Devices * 10
			if rep.TotalEvents < wantAtLeast {
				t.Fatalf("budget=%d: only %d events delivered (want >= %d); periodic schedule starved",
					budget, rep.TotalEvents, wantAtLeast)
			}
		}
	}
	if !sawWatchdog {
		t.Fatal("budget sweep never landed a watchdog kill; sweep values need adjusting")
	}
}
