package fleet

import (
	"bytes"
	"context"
	"errors"
	"sync"
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

// TestForEachBatchCoversAllIndices checks the chunked pool visits every
// index exactly once at every batch size, and stops feeding on first error.
func TestForEachBatchCoversAllIndices(t *testing.T) {
	for _, batch := range []int{1, 3, 16, 100} {
		const n = 53
		var mu sync.Mutex
		seen := make([]int, n)
		err := ForEachBatch(context.Background(), n, 4, batch, func(i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("batch=%d: index %d visited %d times", batch, i, v)
			}
		}
	}
	boom := errors.New("boom")
	calls := 0
	var mu sync.Mutex
	err := ForEachBatch(context.Background(), 10_000, 2, 8, func(i int) error {
		mu.Lock()
		calls++
		mu.Unlock()
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if calls >= 10_000 {
		t.Fatal("feeding did not stop after the first error")
	}
}

// TestChunkFor pins the claim-sizing policy: 1 for tiny fleets, bounded by
// maxChunk for huge ones.
func TestChunkFor(t *testing.T) {
	if got := chunkFor(8, 8); got != 1 {
		t.Fatalf("small fleet: chunk = %d, want 1", got)
	}
	if got := chunkFor(1_000_000, 4); got != maxChunk {
		t.Fatalf("huge fleet: chunk = %d, want %d", got, maxChunk)
	}
	if got := chunkFor(320, 8); got != 10 {
		t.Fatalf("mid fleet: chunk = %d, want 10", got)
	}
}
