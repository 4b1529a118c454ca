package kernel

import (
	"bytes"
	"encoding/json"
	"testing"

	"amuletiso/internal/abi"
	"amuletiso/internal/aft"
	"amuletiso/internal/cc"
	"amuletiso/internal/engine"
	"amuletiso/internal/mem"
)

// checkpointFirmware builds a workload that exercises every piece of state a
// checkpoint must carry: timers and logs (counter), sensor subscriptions and
// reads (hr), and — via posted attack events — faults, the restart policy,
// and MPU violation latches (evil).
func checkpointFirmware(t *testing.T, mode cc.Mode) (*aft.Firmware, *BootTemplate) {
	t.Helper()
	fw, err := aft.Build([]aft.AppSource{
		{Name: "counter", Source: counterApp},
		{Name: "hr", Source: hrApp},
		{Name: "evil", Source: evilApp},
	}, mode)
	if err != nil {
		t.Fatalf("[%v] build: %v", mode, err)
	}
	return fw, NewBootTemplate(fw)
}

// driveTo boots a seeded kernel from the template, arms the workload, and
// runs it to deadlineMS. The evil app attacks the counter app's data mid-run,
// so by any deadline past 2300 the kernel has fault records, a dead-or-
// restarting app, and latched MPU state in flight.
func driveTo(t *BootTemplate, fw *aft.Firmware, arena *mem.PageArena, deadlineMS uint64) *Kernel {
	k := t.NewKernelArena(7, arena)
	k.Policy = RestartPolicy{MaxFaults: 3, BackoffMS: 400}
	// Periodic attacks on the counter app's `count` global: under isolation
	// each delivery faults, driving the restart policy through backoff
	// windows that may straddle a checkpoint; under NoIsolation the writes
	// land, corrupting the counter deterministically.
	target := fw.Image.MustSym(abi.SymGlobal("counter", "count"))
	k.PostPeriodic(2, 3, target, 2300, 1700)
	k.RunUntil(deadlineMS)
	return k
}

// ckJSON renders a checkpoint to canonical JSON — the byte-level state digest
// the equivalence assertions compare.
func ckJSON(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	b, err := json.Marshal(ck)
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	return b
}

// TestCheckpointResumeEquivalence is the core contract: run to T, checkpoint,
// JSON round-trip, resume on a fresh kernel, run both to the end — the
// resumed device's final checkpoint must be byte-identical to the
// uninterrupted run's, under COW and under the flat oracle.
func TestCheckpointResumeEquivalence(t *testing.T) {
	const midMS, endMS = 2500, 6000
	for _, cow := range []bool{true, false} {
		for _, mode := range []cc.Mode{cc.ModeMPU, cc.ModeNoIsolation} {
			fw, tmpl := checkpointFirmware(t, mode)
			tmpl = tmpl.WithEngine(engine.Engine{NoCOW: !cow})

			golden := driveTo(tmpl, fw, nil, endMS)
			want := ckJSON(t, tmpl.Checkpoint(golden))

			half := driveTo(tmpl, fw, nil, midMS)
			ck := tmpl.Checkpoint(half)

			// The checkpoint must survive serialization: everything below
			// works on a decoded copy, never the in-memory original.
			wire := ckJSON(t, ck)
			var decoded Checkpoint
			if err := json.Unmarshal(wire, &decoded); err != nil {
				t.Fatalf("[cow=%v %v] unmarshal: %v", cow, mode, err)
			}

			resumed, err := tmpl.Resume(&decoded, nil)
			if err != nil {
				t.Fatalf("[cow=%v %v] resume: %v", cow, mode, err)
			}
			// Checkpointing the freshly resumed kernel must reproduce the
			// original checkpoint exactly (restore is lossless)...
			if got := ckJSON(t, tmpl.Checkpoint(resumed)); !bytes.Equal(got, wire) {
				t.Fatalf("[cow=%v %v] resume is not lossless:\n got %s\nwant %s", cow, mode, got, wire)
			}
			// ...and running it out must match the uninterrupted run.
			resumed.RunUntil(endMS)
			if got := ckJSON(t, tmpl.Checkpoint(resumed)); !bytes.Equal(got, want) {
				t.Fatalf("[cow=%v %v] resumed run diverged from uninterrupted run", cow, mode)
			}
		}
	}
}

// TestCheckpointResumeAcrossArenas asserts resumption is independent of page
// recycling: a checkpoint taken from an arena-backed device resumes onto a
// different (dirty) arena and still matches, and the resumed device's pages
// flow back to its arena on release.
func TestCheckpointResumeAcrossArenas(t *testing.T) {
	fw, tmpl := checkpointFirmware(t, cc.ModeMPU)

	golden := driveTo(tmpl, fw, nil, 5000)
	want := ckJSON(t, tmpl.Checkpoint(golden))

	arenaA := mem.NewPageArena()
	half := driveTo(tmpl, fw, arenaA, 2500)
	ck := tmpl.Checkpoint(half)
	// Retire the source device: its pages go back to arenaA poisoned, so a
	// resume that wrongly aliased them would be visibly corrupted.
	half.Bus.ReleasePages()

	// Pre-dirty arenaB with an unrelated device's recycled pages.
	arenaB := mem.NewPageArena()
	other := driveTo(tmpl, fw, arenaB, 1000)
	other.Bus.ReleasePages()

	resumed, err := tmpl.Resume(ck, arenaB)
	if err != nil {
		t.Fatal(err)
	}
	resumed.RunUntil(5000)
	if got := ckJSON(t, tmpl.Checkpoint(resumed)); !bytes.Equal(got, want) {
		t.Fatal("resume onto a recycled arena diverged from uninterrupted run")
	}
	// Releasing the resumed device must return every page it dirtied —
	// whether recycled from arenaB or freshly allocated.
	freeBefore, dirty := arenaB.FreePages(), resumed.Bus.DirtyPages()
	if dirty == 0 {
		t.Fatal("resumed device dirtied no pages")
	}
	resumed.Bus.ReleasePages()
	if got := arenaB.FreePages(); got != freeBefore+dirty {
		t.Fatalf("arenaB free pages = %d after release, want %d+%d", got, freeBefore, dirty)
	}
}

// TestCheckpointEveryBoundary checkpoints at every 500 ms boundary of the run
// and verifies each resumption independently — checkpoints mid-backoff,
// mid-attack-cadence, and with events due exactly at the boundary all work.
func TestCheckpointEveryBoundary(t *testing.T) {
	const endMS = 5000
	fw, tmpl := checkpointFirmware(t, cc.ModeMPU)
	want := ckJSON(t, tmpl.Checkpoint(driveTo(tmpl, fw, nil, endMS)))

	for mid := uint64(500); mid < endMS; mid += 500 {
		ck := tmpl.Checkpoint(driveTo(tmpl, fw, nil, mid))
		resumed, err := tmpl.Resume(ck, nil)
		if err != nil {
			t.Fatalf("mid=%d: %v", mid, err)
		}
		resumed.RunUntil(endMS)
		if got := ckJSON(t, tmpl.Checkpoint(resumed)); !bytes.Equal(got, want) {
			t.Fatalf("mid=%d: resumed run diverged", mid)
		}
	}
}

// TestResumeRejectsMalformedCheckpoints covers the validation paths.
func TestResumeRejectsMalformedCheckpoints(t *testing.T) {
	fw, tmpl := checkpointFirmware(t, cc.ModeMPU)
	ck := tmpl.Checkpoint(driveTo(tmpl, fw, nil, 1000))

	appless := *ck
	appless.Apps = ck.Apps[:1]
	if _, err := tmpl.Resume(&appless, nil); err == nil {
		t.Error("resume accepted a checkpoint with the wrong app count")
	}

	badPage := *ck
	badPage.Pages = append([]PagePatch(nil), ck.Pages...)
	badPage.Pages[0].Data = badPage.Pages[0].Data[:10]
	if _, err := tmpl.Resume(&badPage, nil); err == nil {
		t.Error("resume accepted a truncated page patch")
	}

	outOfRange := *ck
	outOfRange.Pages = append([]PagePatch(nil), ck.Pages...)
	outOfRange.Pages[0].Page = 1 << 16
	if _, err := tmpl.Resume(&outOfRange, nil); err == nil {
		t.Error("resume accepted an out-of-range page index")
	}
}

// TestResumeRejectsImpossibleCheckpoints mutates a real checkpoint — one
// with isolation faults, a brownout record (App -1) and display rows — into
// states no run can reach, each of which Resume must refuse before booting.
// The app-99 event is the cut that used to resume and then panic RunUntil
// with an index out of range.
func TestResumeRejectsImpossibleCheckpoints(t *testing.T) {
	fw, tmpl := checkpointFirmware(t, cc.ModeMPU)
	k := driveTo(tmpl, fw, nil, 2500)
	tmpl.Brownout(k, 2500)
	tmpl.Reboot(k, 2600)
	k.RunUntil(4200)
	k.Display.Text(3, "row")
	wire := ckJSON(t, tmpl.Checkpoint(k))
	fresh := func() *Checkpoint {
		ck := new(Checkpoint)
		if err := json.Unmarshal(wire, ck); err != nil {
			t.Fatal(err)
		}
		return ck
	}
	base := fresh()
	if len(base.Queue) == 0 || len(base.Faults) < 2 || base.Faults[0].App < 0 {
		t.Fatalf("fixture lacks queued events or isolation faults: %d events, faults %+v", len(base.Queue), base.Faults)
	}
	brownout := false
	for _, f := range base.Faults {
		brownout = brownout || f.App == -1
	}
	if !brownout {
		t.Fatal("fixture lacks a brownout record")
	}

	for _, c := range []struct {
		name   string
		mutate func(*Checkpoint)
	}{
		{"event for app 99", func(ck *Checkpoint) { ck.Queue[0].App = 99 }},
		{"event for app 3 of 3", func(ck *Checkpoint) { ck.Queue[0].App = len(ck.Apps) }},
		{"event for app -1", func(ck *Checkpoint) { ck.Queue[0].App = -1 }},
		{"fault record for app 99", func(ck *Checkpoint) { ck.Faults[0].App = 99 }},
		{"fault record for app -2", func(ck *Checkpoint) { ck.Faults[0].App = -2 }},
		{"app -1 fault that is not a brownout", func(ck *Checkpoint) { ck.Faults[0].App = -1 }},
		{"negative MaxFaults", func(ck *Checkpoint) { ck.Policy.MaxFaults = -1 }},
		{"negative app fault count", func(ck *Checkpoint) { ck.Apps[0].Faults = -3 }},
		{"more app faults than records", func(ck *Checkpoint) { ck.Apps[1].Faults = len(ck.Faults) + 1 }},
		{"negative display clears", func(ck *Checkpoint) { ck.Display.Clears = -1 }},
		{"negative display texts", func(ck *Checkpoint) { ck.Display.Texts = -1 }},
		{"display row past 16 bits", func(ck *Checkpoint) { ck.Display.Rows[1<<20] = "x" }},
		{"negative display row", func(ck *Checkpoint) { ck.Display.Rows[-1] = "x" }},
		{"page index past the bus", func(ck *Checkpoint) { ck.Pages[0].Page = 256 }},
		{"short page patch", func(ck *Checkpoint) { ck.Pages[0].Data = ck.Pages[0].Data[:1] }},
	} {
		ck := fresh()
		c.mutate(ck)
		if _, err := tmpl.Resume(ck, nil); err == nil {
			t.Errorf("%s: Resume accepted the checkpoint", c.name)
		}
	}

	// The unmutated cut, brownout record included, resumes and runs.
	r, err := tmpl.Resume(base, nil)
	if err != nil {
		t.Fatalf("Resume rejected a real checkpoint: %v", err)
	}
	r.RunUntil(8000)
}
