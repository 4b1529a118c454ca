package fleet

import (
	"bytes"
	"context"
	"runtime"
	"testing"
)

// TestLatencyReportDeterminism is the satellite lock for the latency
// histograms: serialized reports — hist buckets and percentile summary
// included — must be byte-identical across worker counts.
func TestLatencyReportDeterminism(t *testing.T) {
	sc := testScenario(10)
	var golden []byte
	check := func(label string, workers int) {
		rep, err := (&Runner{Workers: workers}).Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if rep.LatencySummary.Count == 0 {
			t.Fatalf("%s: latency summary is empty", label)
		}
		b := marshal(t, rep)
		if golden == nil {
			golden = b
			return
		}
		if !bytes.Equal(golden, b) {
			t.Errorf("%s: report differs from baseline", label)
		}
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		check("workers", workers)
	}
}

// TestLatencyMergeEqualsUnion locks shard merging: the merged latency
// histogram of two disjoint shards must equal the union run's.
func TestLatencyMergeEqualsUnion(t *testing.T) {
	whole := testScenario(8)
	repWhole, err := Run(context.Background(), whole)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := whole, whole
	lo.Devices, hi.Devices, hi.FirstDevice = 3, 5, 3
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
	if !bytes.Equal(marshal(t, repWhole), marshal(t, repLo)) {
		t.Fatal("merged shard report differs from the union run")
	}
}

// TestFaultTraceDump exercises the explicit dump hatch: faulting devices
// carry a recorder window of at most faultTraceWindow events ending with
// their last fault, non-faulting devices carry none, and the recorders are
// outputs only — with every dump cleared, the report is the same bytes as
// the plain run's.
func TestFaultTraceDump(t *testing.T) {
	for _, devices := range []int{6, 24} {
		run := func(faultTrace bool) *Report {
			sc := testScenario(devices)
			sc.FaultTrace = faultTrace
			rep, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		rep := run(true)
		dumped := 0
		for _, d := range rep.PerDevice {
			if d.Faults == 0 {
				if d.FaultTrace != nil {
					t.Fatalf("device %d has no faults but carries a trace dump", d.Device)
				}
				continue
			}
			if len(d.FaultTrace) == 0 {
				t.Fatalf("faulting device %d carries no trace dump", d.Device)
			}
			if len(d.FaultTrace) > faultTraceWindow {
				t.Fatalf("device %d dump has %d events, cap is %d",
					d.Device, len(d.FaultTrace), faultTraceWindow)
			}
			if last := d.FaultTrace[len(d.FaultTrace)-1]; last.Kind != "fault" {
				t.Fatalf("device %d dump ends with a %s event, not its fault", d.Device, last.Kind)
			}
			dumped++
		}
		if dumped == 0 {
			t.Fatal("scenario injects faults but no device dumped a trace")
		}

		for i := range rep.PerDevice {
			rep.PerDevice[i].FaultTrace = nil
		}
		if !bytes.Equal(marshal(t, run(false)), marshal(t, rep)) {
			t.Fatal("FaultTrace changed the report beyond its dumps")
		}
	}
}
