package fleet

import (
	"bytes"
	"context"
	"testing"

	"amuletiso/internal/engine"
)

// TestFleetReportByteIdenticalCOWAcrossEngines is the fleet-level engine
// guarantee: the serialized report for a scenario with faults, restarts and
// button noise must be byte-identical in every engine.Matrix cell — COW and
// the flat-clone oracle among them.
func TestFleetReportByteIdenticalCOWAcrossEngines(t *testing.T) {
	sc := testScenario(6)
	want, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engine.Matrix[1:] {
		t.Run(e.String(), func(t *testing.T) {
			t.Parallel()
			sc := sc
			sc.Engine = e
			rep, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshal(t, want), marshal(t, rep)) {
				t.Fatal("report differs from the production engine's")
			}
		})
	}
}

// TestRunnerArenaRecyclesPages drives one runner through consecutive runs and
// asserts the page arena actually cycles: the second run boots devices from
// the first run's recycled pages.
func TestRunnerArenaRecyclesPages(t *testing.T) {
	sc := testScenario(4)
	r := &Runner{Workers: 2}
	if _, err := r.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	_, puts1 := r.ArenaStats()
	if puts1 == 0 {
		t.Fatal("first run recycled no pages; devices should dirty and release pages")
	}
	if _, err := r.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	gets2, puts2 := r.ArenaStats()
	if gets2 == 0 {
		t.Fatal("second run reused no recycled pages")
	}
	if puts2 <= puts1 {
		t.Fatalf("second run returned no pages (puts %d -> %d)", puts1, puts2)
	}
}
