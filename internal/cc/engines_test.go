package cc

import (
	"testing"

	"amuletiso/internal/cpu"
	"amuletiso/internal/engine"
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

// TestProgramEngineMatrixEquivalence runs one compiled program in every
// engine.Matrix cell and asserts identical observable results — the
// cc-level slice of the torture battery.
func TestProgramEngineMatrixEquivalence(t *testing.T) {
	type outcome struct {
		stop          cpu.StopReason
		exit          uint16
		cycles, insns uint64
		r, w, f       uint64
		viol          uint64
	}
	run := func(t *testing.T, e engine.Engine) outcome {
		p, err := CompileProgram("engineprobe", engineProbeSrc, ProgramOptions{Mode: ModeMPU, EnableMPU: true, Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		m := p.Load()
		stop, fault := m.Run(10_000_000)
		if fault != nil {
			t.Fatal(fault)
		}
		r, w, f := m.Bus.Stats()
		return outcome{stop, m.CPU.ExitCode, m.CPU.Cycles, m.CPU.Insns, r, w, f, m.MPU.Violations()}
	}
	want := run(t, engine.Engine{})
	for _, e := range engine.Matrix[1:] {
		t.Run(e.String(), func(t *testing.T) {
			t.Parallel()
			if got := run(t, e); got != want {
				t.Fatalf("diverged:\n  want: %+v\n  got:  %+v", want, got)
			}
		})
	}
}
