package cc

import (
	"testing"

	"amuletiso/internal/cpu"
	"amuletiso/internal/mem"
)

const engineProbeSrc = `
int g;
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 25; i++) {
        if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
    }
    g = s;
    return s;
}
`

// TestProgramEngineMatrixEquivalence runs one compiled program with
// certificates on and off, on the default engine and on the live-decode
// oracle, and asserts identical observable results — the cc-level slice of
// the torture battery.
func TestProgramEngineMatrixEquivalence(t *testing.T) {
	defer func() {
		cpu.SetDecodeCache(true)
		mem.SetExecCerts(true)
	}()
	type outcome struct {
		stop          cpu.StopReason
		exit          uint16
		cycles, insns uint64
		r, w, f       uint64
		viol          uint64
	}
	var results []outcome
	for _, cfg := range []struct {
		name          string
		cached, certs bool
	}{
		{"default+certified", true, true},
		{"default+perword", true, false},
		{"livedecode+certified", false, true},
		{"livedecode+perword", false, false},
	} {
		cpu.SetDecodeCache(cfg.cached)
		mem.SetExecCerts(cfg.certs)
		p, err := CompileProgram("engineprobe", engineProbeSrc, ProgramOptions{Mode: ModeMPU, EnableMPU: true})
		if err != nil {
			t.Fatal(err)
		}
		m := p.Load()
		stop, fault := m.Run(10_000_000)
		if fault != nil {
			t.Fatalf("%s: %v", cfg.name, fault)
		}
		r, w, f := m.Bus.Stats()
		results = append(results, outcome{stop, m.CPU.ExitCode, m.CPU.Cycles, m.CPU.Insns, r, w, f, m.MPU.Violations()})
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("engine matrix diverged:\n  base: %+v\n  cfg %d: %+v", results[0], i, results[i])
		}
	}
}
