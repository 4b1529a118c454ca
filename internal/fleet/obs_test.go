package fleet

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"amuletiso/internal/obs"
)

// TestLatencyReportDeterminism is the satellite lock for the latency
// histograms: serialized reports — hist buckets and percentile summary
// included — must be byte-identical across worker counts and across tracing
// on/off.
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
	obs.SetTracing(true)
	check("traced", 4)
	obs.SetTracing(false)
	obs.SetMetrics(false)
	check("noobs", 4)
	obs.SetMetrics(true)
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
// carry a recorder window containing the fault, non-faulting devices carry
// none, and the dump bytes do not depend on whether global tracing is armed.
func TestFaultTraceDump(t *testing.T) {
	sc := testScenario(6)
	sc.FaultTrace = true
	run := func() *Report {
		rep, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
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
		dumped++
	}
	if dumped == 0 {
		t.Fatal("scenario injects faults but no device dumped a trace")
	}

	obs.SetTracing(true)
	traced := run()
	obs.SetTracing(false)
	if !bytes.Equal(marshal(t, rep), marshal(t, traced)) {
		t.Fatal("FaultTrace dump depends on the global tracing switch")
	}
}

// TestNoFaultTraceByDefault guards the determinism contract from the other
// side: without Scenario.FaultTrace, no recorder data reaches the report
// even when tracing is armed process-wide.
func TestNoFaultTraceByDefault(t *testing.T) {
	obs.SetTracing(true)
	defer obs.SetTracing(false)
	rep, err := Run(context.Background(), testScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.PerDevice {
		if d.FaultTrace != nil {
			t.Fatalf("device %d leaked recorder data without FaultTrace", d.Device)
		}
	}
}
