package torture

import (
	"testing"

	"amuletiso/internal/kernel"
	"amuletiso/internal/obs"
)

// TestRecorderSecondWitness replays the committed corpus's hosted cases.
// executeHosted always attaches a flight recorder and cross-checks it: the
// recorder's fault event must attribute the same FaultClass as the kernel's
// fault record, or the case fails as recorder-mismatch. A green replay in
// which some case faulted is the corpus-level assertion that the recorder is
// a faithful second witness to the attribution oracle.
func TestRecorderSecondWitness(t *testing.T) {
	cases, err := LoadCorpus("testdata")
	if err != nil {
		t.Fatal(err)
	}
	witnessed := 0
	for _, c := range cases {
		if c.Kind != KindHosted {
			continue
		}
		out := Execute(c)
		if !out.Pass {
			t.Errorf("hosted corpus case %s: [%s] %s", c.Name, out.Category, out.Reason)
		}
		for _, l := range out.Observed {
			if l != LayerNone {
				witnessed++
			}
		}
	}
	if witnessed == 0 {
		t.Fatal("no hosted corpus case faulted; the second-witness check never compared a fault")
	}
}

// TestLastFaultClass covers the dump-scanning helper the witness check uses.
func TestLastFaultClass(t *testing.T) {
	if _, ok := lastFaultClass(nil); ok {
		t.Fatal("empty dump should have no fault class")
	}
	evs := []obs.DumpEvent{
		{Kind: obs.KindDispatch.String()},
		{Kind: obs.KindFault.String(), A: uint16(kernel.FaultMPU)},
		{Kind: obs.KindGateCross.String()},
	}
	cls, ok := lastFaultClass(evs)
	if !ok || cls != kernel.FaultMPU {
		t.Fatalf("lastFaultClass = %v, %t; want mpu, true", cls, ok)
	}
}
