package kernel

import (
	"bytes"
	"testing"

	"amuletiso/internal/cc"
	"amuletiso/internal/engine"
	"amuletiso/internal/mem"
)

// TestRebootImageFixedPoint is the crash-consistency core: booting a live
// kernel from a persistent cut and re-checkpointing it must reproduce the
// RebootImage bytes exactly — the pure state machine and the effectful
// reboot path may never disagree. Checked under COW and the flat oracle.
func TestRebootImageFixedPoint(t *testing.T) {
	for _, cow := range []bool{true, false} {
		for _, mode := range []cc.Mode{cc.ModeMPU, cc.ModeNoIsolation} {
			fw, tmpl := checkpointFirmware(t, mode)
			tmpl = tmpl.WithEngine(engine.Engine{NoCOW: !cow})
			for _, cutMS := range []uint64{500, 2500, 4400} {
				k := driveTo(tmpl, fw, nil, cutMS)
				cut := tmpl.PersistentCut(tmpl.Checkpoint(k), cutMS)
				restart := cutMS + 700

				img := tmpl.RebootImage(cut, restart)
				k2, err := tmpl.RebootFromCut(cut, restart, nil)
				if err != nil {
					t.Fatalf("[%v cow=%v cut=%d] reboot: %v", mode, cow, cutMS, err)
				}
				got := ckJSON(t, tmpl.Checkpoint(k2))
				want := ckJSON(t, img)
				if !bytes.Equal(got, want) {
					t.Fatalf("[%v cow=%v cut=%d] rebooted checkpoint diverges from RebootImage:\nwant %s\ngot  %s",
						mode, cow, cutMS, want, got)
				}

				// The rebooted device must actually run: re-queued EvInit
				// events deliver to every policy-alive app.
				alive := 0
				for _, a := range img.Apps {
					if a.Alive {
						alive++
					}
				}
				if n := k2.RunUntil(restart); alive > 0 && n == 0 {
					t.Fatalf("[%v cow=%v cut=%d] rebooted kernel delivered no events to %d alive apps",
						mode, cow, cutMS, alive)
				}
			}
		}
	}
}

// TestPersistentCutKeepsOnlyFRAM: every page in a cut must classify as
// persistent, volatile machine state must be gone, and the brownout fault
// must be attributed to the power layer.
func TestPersistentCutKeepsOnlyFRAM(t *testing.T) {
	fw, tmpl := checkpointFirmware(t, cc.ModeMPU)
	k := driveTo(tmpl, fw, nil, 3000)
	ck := tmpl.Checkpoint(k)
	cut := tmpl.PersistentCut(ck, 3000)

	for _, p := range cut.Pages {
		if !mem.PagePersistent(p.Page) {
			t.Errorf("cut carries volatile page %d (0x%04X)", p.Page, p.Page*mem.PageSize)
		}
	}
	if len(cut.Queue) != 0 {
		t.Errorf("cut carries %d queued events; the queue is SRAM-resident", len(cut.Queue))
	}
	if cut.RNG != 0 {
		t.Errorf("cut carries a live RNG state %#x; the LCG lives in SRAM", cut.RNG)
	}
	for i, a := range cut.Apps {
		if len(a.Subs) != 0 {
			t.Errorf("app %d keeps %d sensor subscriptions across power loss", i, len(a.Subs))
		}
	}
	if cut.MPU.SAM != 0x7777 || cut.MPU.CTL0 != 0 {
		t.Errorf("MPU did not come back in reset state: %+v", cut.MPU)
	}
	if cut.MPU.Cap != ck.MPU.Cap {
		t.Errorf("MPU capability (a hardware trait) changed across power loss")
	}
	// OS accounting survives in FRAM.
	if cut.CPU.Cycles != ck.CPU.Cycles || cut.CPU.Insns != ck.CPU.Insns {
		t.Error("cycle odometers did not survive")
	}
	last := cut.Faults[len(cut.Faults)-1]
	if last.Class != FaultBrownout || last.App != -1 || last.AtMS != 3000 {
		t.Errorf("brownout fault record = %+v", last)
	}
	if FaultBrownout.String() != "brownout" {
		t.Errorf("FaultBrownout renders as %q", FaultBrownout)
	}
}

// TestPersistentCutIdempotent: projecting an already-projected cut must
// change nothing but append another brownout record — the property
// RebootImage relies on.
func TestPersistentCutIdempotent(t *testing.T) {
	fw, tmpl := checkpointFirmware(t, cc.ModeMPU)
	k := driveTo(tmpl, fw, nil, 2500)
	cut := tmpl.PersistentCut(tmpl.Checkpoint(k), 2500)
	again := tmpl.PersistentCut(cut, 2500)
	again.Faults = again.Faults[:len(again.Faults)-1]
	if !bytes.Equal(ckJSON(t, cut), ckJSON(t, again)) {
		t.Fatal("PersistentCut is not idempotent on its own output")
	}
}
