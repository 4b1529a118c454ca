package kernel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"amuletiso/internal/cc"
	"amuletiso/internal/mem"
)

// sramScratch is an SRAM word the test firmware never uses between events;
// FRAM pages the tests dirty are found through the firmware's text range.
const sramScratch = 0x1E00

// fullDiffPages is the pre-page-walk Checkpoint memory encoding: snapshot the
// whole bus and diff all 256 pages against the template image. It is the
// oracle the private-page walk must reproduce.
func fullDiffPages(t *BootTemplate, k *Kernel) []PagePatch {
	var img mem.BusImage
	k.Bus.SnapshotData(&img)
	var out []PagePatch
	for p := 0; p < len(img)/mem.PageSize; p++ {
		lo, hi := p*mem.PageSize, (p+1)*mem.PageSize
		if !bytes.Equal(img[lo:hi], t.img[lo:hi]) {
			out = append(out, PagePatch{Page: p, Data: append([]byte(nil), img[lo:hi]...)})
		}
	}
	return out
}

// smudge leaves the kernel with every kind of memory state the page walk and
// the power path must handle: an SRAM word changed, a FRAM page written back
// to its own template bytes, a FRAM text word rewritten in place (tripping
// the code watch), and dirty-code marks in both SRAM and FRAM. It runs
// between events and changes no behavior: the text word keeps its bytes and
// dirty marks only route fetches to the live decoder.
func smudge(k *Kernel) {
	text := k.FW.Text.RangeAt(0).Lo
	k.Bus.Poke16(text, k.Bus.Peek16(text))
	idle := text + 4*mem.PageSize
	k.Bus.Poke8(idle, k.Bus.Peek8(idle))
	k.Bus.Poke16(sramScratch, k.Bus.Peek16(sramScratch)^0x5AA5)
	st := k.CPU.State()
	st.DirtyCode = append(st.DirtyCode, sramScratch, text+2)
	k.CPU.SetState(st)
}

// TestCheckpointPagesMatchFullDiff: Checkpoint's private-page walk yields the
// same patches as a full-image diff, on COW and flat buses, including pages
// written back to their template bytes (no patch) and rewritten text.
func TestCheckpointPagesMatchFullDiff(t *testing.T) {
	for _, cow := range []bool{true, false} {
		mem.SetCOW(cow)
		t.Cleanup(func() { mem.SetCOW(true) })
		for _, mode := range []cc.Mode{cc.ModeMPU, cc.ModeNoIsolation} {
			fw, tmpl := checkpointFirmware(t, mode)
			for _, at := range []uint64{0, 2500, 4400} {
				k := driveTo(tmpl, fw, nil, at)
				smudge(k)
				want := ckJSON(t, &Checkpoint{Pages: fullDiffPages(tmpl, k)})
				got := ckJSON(t, &Checkpoint{Pages: tmpl.Checkpoint(k).Pages})
				if !bytes.Equal(got, want) {
					t.Fatalf("[cow=%v %v at=%d] page walk diverges from the full diff:\n got %s\nwant %s",
						cow, mode, at, got, want)
				}
				text := int(k.FW.Text.RangeAt(0).Lo)/mem.PageSize + 4
				for _, p := range tmpl.Checkpoint(k).Pages {
					if p.Page == text {
						t.Fatalf("[cow=%v %v at=%d] page %d was written back to its template bytes but yields a patch",
							cow, mode, at, text)
					}
				}
			}
		}
	}
}

// TestInPlacePowerCycleMatchesPureChain is the oracle test for the in-place
// power path: at several brownout times per mode, under COW and the flat
// oracle, Brownout and Reboot on the live kernel must checkpoint to exactly
// the bytes of the pure chain (PersistentCut, RebootImage), and the
// in-place device must stay byte-identical to one resumed from the pure
// image — after the loss, after the reboot, after 2 s more running, and
// through a second power cycle.
func TestInPlacePowerCycleMatchesPureChain(t *testing.T) {
	for _, cow := range []bool{true, false} {
		mem.SetCOW(cow)
		t.Cleanup(func() { mem.SetCOW(true) })
		for _, mode := range []cc.Mode{cc.ModeMPU, cc.ModeNoIsolation} {
			fw, tmpl := checkpointFirmware(t, mode)
			for _, cutMS := range []uint64{500, 2300, 2500, 4400} {
				tag := fmt.Sprintf("[cow=%v %v cut=%d]", cow, mode, cutMS)
				arena := mem.NewPageArena()
				k := driveTo(tmpl, fw, arena, cutMS)
				var chain *Kernel
				at := cutMS
				for round := 0; round < 2; round++ {
					smudge(k)
					cut := tmpl.PersistentCut(tmpl.Checkpoint(k), at)
					tmpl.Brownout(k, at)
					expectSame(t, tag, round, "after the loss", ckJSON(t, cut), ckJSON(t, tmpl.Checkpoint(k)))
					for p := range k.Bus.PrivatePages {
						if cow && !mem.PagePersistent(p) {
							t.Fatalf("%s round %d: volatile page %d still private after the loss", tag, round, p)
						}
					}

					restart := at + 700
					img := tmpl.RebootImage(cut, restart)
					tmpl.Reboot(k, restart)
					expectSame(t, tag, round, "after the reboot", ckJSON(t, img), ckJSON(t, tmpl.Checkpoint(k)))

					if chain != nil {
						chain.Bus.ReleasePages()
					}
					var err error
					if chain, err = tmpl.Resume(img, nil); err != nil {
						t.Fatalf("%s round %d: resume the pure image: %v", tag, round, err)
					}
					at = restart + 2000
					k.RunUntil(at)
					chain.RunUntil(at)
					expectSame(t, tag, round, "2 s after the reboot",
						ckJSON(t, tmpl.Checkpoint(chain)), ckJSON(t, tmpl.Checkpoint(k)))
					k, chain = chain, k // the next round cycles the other kernel in place
				}
			}
		}
	}
}

func expectSame(t *testing.T, tag string, round int, stage string, want, got []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s round %d: in-place checkpoint diverges from the pure chain %s:\n got %s\nwant %s",
			tag, round, stage, got, want)
	}
}

// TestRebootFromCutAfterJSON: a cut that went through JSON — a dark device
// parked in a campaign checkpoint — reboots to the RebootImage bytes.
func TestRebootFromCutAfterJSON(t *testing.T) {
	fw, tmpl := checkpointFirmware(t, cc.ModeMPU)
	k := driveTo(tmpl, fw, nil, 3100)
	tmpl.Brownout(k, 3100)
	var cut Checkpoint
	if err := json.Unmarshal(ckJSON(t, tmpl.Checkpoint(k)), &cut); err != nil {
		t.Fatal(err)
	}
	k2, err := tmpl.RebootFromCut(&cut, 3300, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmpl.Reboot(k, 3300)
	want := ckJSON(t, tmpl.RebootImage(&cut, 3300))
	if got := ckJSON(t, tmpl.Checkpoint(k2)); !bytes.Equal(got, want) {
		t.Fatalf("RebootFromCut diverges from RebootImage:\n got %s\nwant %s", got, want)
	}
	if got := ckJSON(t, tmpl.Checkpoint(k)); !bytes.Equal(got, want) {
		t.Fatalf("in-place Reboot diverges from RebootImage:\n got %s\nwant %s", got, want)
	}
}
