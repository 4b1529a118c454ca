package fleet

import (
	"bytes"
	"context"
	"testing"

	"amuletiso/internal/cpu"
	"amuletiso/internal/isa"
	"amuletiso/internal/mem"
)

// engineCell is one cell of the fleet engine matrix: the default engine,
// each build-time or fetch-path hatch flipped alone, and the live-decode
// oracle (decode cache and certificates off). The COW axis is swept
// separately, so every cell also runs on flat memory.
type engineCell struct {
	name                                   string
	noThread, noCert, noJIT, noDecodeCache bool
}

var engineCells = []engineCell{
	{name: "default"},
	{name: "nothread", noThread: true},
	{name: "nocert", noCert: true},
	{name: "nojit", noJIT: true},
	{name: "nodecodecache", noDecodeCache: true},
	{name: "oracle", noDecodeCache: true, noCert: true},
}

// apply flips the process-global engine toggles to this cell.
func (c engineCell) apply() {
	isa.SetThreading(!c.noThread)
	mem.SetExecCerts(!c.noCert)
	isa.SetJIT(!c.noJIT)
	cpu.SetDecodeCache(!c.noDecodeCache)
}

// TestFleetReportByteIdenticalCOWAcrossEngines is the fleet-level COW
// guarantee: the serialized report for a scenario with faults, restarts and
// button noise must be byte-identical with COW device memory and with the
// flat-clone oracle, in every cell of the engine matrix.
func TestFleetReportByteIdenticalCOWAcrossEngines(t *testing.T) {
	defer func() {
		engineCells[0].apply()
		mem.SetCOW(true)
	}()
	sc := testScenario(6)
	var golden []byte
	for _, cell := range engineCells {
		cell.apply()
		for _, cow := range []bool{true, false} {
			mem.SetCOW(cow)
			rep, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatalf("%s cow=%v: %v", cell.name, cow, err)
			}
			b := marshal(t, rep)
			if golden == nil {
				golden = b
				continue
			}
			if !bytes.Equal(golden, b) {
				t.Fatalf("%s cow=%v: report differs from %s cow=true",
					cell.name, cow, engineCells[0].name)
			}
		}
	}
}

// TestRunnerArenaRecyclesPages drives one runner through consecutive runs and
// asserts the page arena actually cycles: the second run boots devices from
// the first run's recycled pages.
func TestRunnerArenaRecyclesPages(t *testing.T) {
	mem.SetCOW(true)
	defer mem.SetCOW(true)
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
