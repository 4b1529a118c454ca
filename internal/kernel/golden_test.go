package kernel

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"maps"
	"os"
	"testing"
)

// goldenCheckpoint pins the checkpoint encoding byte for byte: a device of
// the pedometer/hr/clock firmware (seed 7) at 1500 ms, after its apps
// subscribed to sensors, as indented JSON. A missing file is written and the
// test fails, so regenerate it with
//
//	rm internal/kernel/testdata/golden_checkpoint.json; go test -run TestCheckpointGolden ./internal/kernel
const goldenCheckpoint = "testdata/golden_checkpoint.json"

// TestCheckpointGolden: a fresh run checkpoints to the golden's bytes, and
// the golden, read back as a restarted daemon reads a cut an earlier build
// wrote, resumes to a kernel that checkpoints to the same bytes.
func TestCheckpointGolden(t *testing.T) {
	tmpl := NewBootTemplate(buildApps(t, "pedometer", "hr", "clock"))
	indent := func(ck *Checkpoint) []byte {
		b, err := json.MarshalIndent(ck, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	k := tmpl.NewKernel(7)
	k.RunUntil(1500)
	got := indent(tmpl.Checkpoint(k))
	want, err := os.ReadFile(goldenCheckpoint)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(goldenCheckpoint, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; rerun to check it", goldenCheckpoint)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint differs from %s:\n%s", goldenCheckpoint, got)
	}

	var ck Checkpoint
	if err := json.Unmarshal(want, &ck); err != nil {
		t.Fatal(err)
	}
	for i, subs := range []int{1, 1, 0} {
		if len(ck.Apps[i].Subs) != subs {
			t.Fatalf("golden app %d holds %d subscriptions, want %d", i, len(ck.Apps[i].Subs), subs)
		}
	}
	r, err := tmpl.Resume(&ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := indent(tmpl.Checkpoint(r)); !bytes.Equal(got, want) {
		t.Fatalf("the golden resumes to a different checkpoint:\n%s", got)
	}
}

// TestSubscriptionsRoundTrip: subscriptions a checkpoint carries, including
// a period of 0 and a sensor id outside the ABI that only hostile firmware
// subscribes to, resume and re-checkpoint unchanged, and a brownout drops
// them all.
func TestSubscriptionsRoundTrip(t *testing.T) {
	tmpl := NewBootTemplate(buildApps(t, "pedometer", "hr", "clock"))
	ck := tmpl.Checkpoint(tmpl.NewKernel(3))
	want := map[uint16]uint64{0: 50, 4: 0, 9: 300}
	ck.Apps[2].Subs = want
	k, err := tmpl.Resume(ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tmpl.Checkpoint(k).Apps[2].Subs; !maps.Equal(got, want) {
		t.Fatalf("resumed subscriptions checkpoint as %v, want %v", got, want)
	}
	tmpl.Brownout(k, 10)
	if got := tmpl.Checkpoint(k).Apps[2].Subs; got != nil {
		t.Fatalf("subscriptions %v survive a brownout", got)
	}
}
