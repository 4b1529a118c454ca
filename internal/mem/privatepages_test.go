package mem

import (
	"bytes"
	"testing"
)

// privatePages collects a bus's private page indices in visit order.
func privatePages(b *Bus) []int {
	var pages []int
	for p, data := range b.PrivatePages {
		if !bytes.Equal(data, b.mem[p][:]) {
			panic("PrivatePages yielded bytes that are not the live page")
		}
		pages = append(pages, p)
	}
	return pages
}

// TestPrivatePagesFlatVisitsAll: a flat bus owns every page, so the walk is
// all 256 pages in ascending order — the full-image diff the flat oracle
// has always done.
func TestPrivatePagesFlatVisitsAll(t *testing.T) {
	b := NewBusFrom(cowFixture().Image())
	got := privatePages(b)
	if len(got) != numPages {
		t.Fatalf("flat bus visited %d pages, want %d", len(got), numPages)
	}
	for i, p := range got {
		if p != i {
			t.Fatalf("flat walk visit %d is page %d, want ascending order", i, p)
		}
	}
}

// TestPrivatePagesCOWVisitsFaulted: a COW bus visits exactly the pages it
// faulted in, ascending whatever the write order, and none after
// ReleasePages.
func TestPrivatePagesCOWVisitsFaulted(t *testing.T) {
	b := NewBusCOW(cowFixture(), NewPageArena())
	if got := privatePages(b); len(got) != 0 {
		t.Fatalf("fresh COW bus visited pages %v, want none", got)
	}
	for _, addr := range []uint16{0xFF00, 0x4400, 0x1C10, 0x4401, 0x0200, 0x80FE} {
		b.Poke8(addr, 0x5A)
	}
	want := []int{0x02, 0x1C, 0x44, 0x80, 0xFF}
	got := privatePages(b)
	if len(got) != len(want) {
		t.Fatalf("COW walk visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("COW walk visited %v, want %v", got, want)
		}
	}
	// Early exit stops the walk.
	n := 0
	for range b.PrivatePages {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("break after the first page still visited %d", n)
	}
	b.ReleasePages()
	if got := privatePages(b); len(got) != 0 {
		t.Fatalf("released COW bus visited pages %v, want none", got)
	}
}

// TestRevertVolatile: power loss returns SRAM (and other volatile) pages to
// the boot image and keeps FRAM writes, on both backings; the COW bus hands
// the reverted pages to its arena, and the code watch fires only for
// watched text whose bytes actually change.
func TestRevertVolatile(t *testing.T) {
	for _, cow := range []bool{true, false} {
		tmpl := cowFixture()
		arena := NewPageArena()
		var b *Bus
		if cow {
			b = NewBusCOW(tmpl, arena)
		} else {
			b = NewBusFrom(tmpl.Image())
		}
		var fired [][2]uint16
		b.WatchCode(NewCodeWatch([]CodeRange{{Lo: 0x1C00, Hi: 0x1C40}, {Lo: 0x4400, Hi: 0x4440}}),
			codeWriteFunc(func(lo, hi uint16) { fired = append(fired, [2]uint16{lo, hi}) }))
		b.Poke16(0x1C00, 0xDEAD) // volatile, watched: must revert and fire
		b.Poke16(0x2000, 0xBEEF) // volatile, unwatched
		// Volatile page written back to its boot bytes: reverts silently.
		b.Poke8(0x1E00, b.Peek8(0x1E00))
		b.Poke16(0x4400, 0xCAFE) // persistent, watched: survives
		b.Poke16(0x1800, 0xF00D) // InfoMem is FRAM: survives
		fired = nil

		b.RevertVolatile(tmpl.Image())

		img := tmpl.Image()
		for _, addr := range []uint16{0x1C00, 0x2000, 0x1E00} {
			if got, want := b.Peek16(addr), uint16(img[addr])|uint16(img[addr+1])<<8; got != want {
				t.Errorf("cow=%v: volatile word %#04x = %#04x after power loss, want boot %#04x", cow, addr, got, want)
			}
		}
		if b.Peek16(0x4400) != 0xCAFE || b.Peek16(0x1800) != 0xF00D {
			t.Errorf("cow=%v: FRAM writes did not survive power loss", cow)
		}
		if len(fired) != 1 || fired[0] != [2]uint16{0x1C00, 0x1C3F} {
			t.Errorf("cow=%v: code watch fired %v, want once for the reverted SRAM text [0x1C00,0x1C3F]", cow, fired)
		}
		if !cow {
			if got := len(privatePages(b)); got != numPages {
				t.Errorf("flat bus owns %d pages after power loss, want %d", got, numPages)
			}
			continue
		}
		got := privatePages(b)
		if len(got) != 2 || got[0] != 0x18 || got[1] != 0x44 {
			t.Errorf("COW bus keeps pages %v after power loss, want [0x18 0x44]", got)
		}
		if b.DirtyPages() != 2 {
			t.Errorf("COW bus reports %d dirty pages, want 2", b.DirtyPages())
		}
		if free := arena.FreePages(); free != 3 {
			t.Errorf("arena holds %d pages after power loss, want the 3 reverted", free)
		}
	}
}
