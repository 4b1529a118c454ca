package mpu_test

import (
	"testing"

	"amuletiso/internal/apps"
	"amuletiso/internal/core"
	"amuletiso/internal/mpu"
)

// TestSuiteGateCrossingsSkipPlanStore boots the nine-app suite under the MPU
// hybrid and runs it with button presses: once every configuration the
// dispatch veneer, the gates and the kernel step through has been seen,
// each register write finds its successor through the previous record's
// edges, so the shared plan store is never consulted again.
func TestSuiteGateCrossingsSkipPlanStore(t *testing.T) {
	sys, err := core.NewSystem(apps.Suite(), core.MPU)
	if err != nil {
		t.Fatal(err)
	}
	k := sys.Kernel
	run := func(ms uint64) {
		for end := k.NowMS + ms; k.NowMS < end; {
			sys.RunFor(1000)
			k.InjectButton(1)
		}
	}
	run(10_000) // warm-up
	lookups, gen := mpu.PlanStoreLookups(), k.MPU.ExecGen()
	run(20_000)
	if n := k.MPU.ExecGen() - gen; n < 1000 {
		t.Fatalf("only %d configuration changes in 20 s: the gates are not exercised", n)
	}
	t.Logf("%d configuration changes after warm-up", k.MPU.ExecGen()-gen)
	if n := mpu.PlanStoreLookups() - lookups; n != 0 {
		t.Fatalf("%d shared-store lookups after warm-up, want 0", n)
	}
	if len(k.Faults) != 0 {
		t.Fatalf("suite faulted: %v", k.Faults[0])
	}
}
