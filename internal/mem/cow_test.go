package mem

import (
	"testing"
)

// cowFixture builds an immutable template with a recognizable byte pattern
// and returns it alongside its image.
func cowFixture() *Template {
	img := new(BusImage)
	for i := range img {
		img[i] = byte(i>>8) ^ byte(i)
	}
	return NewTemplate(img)
}

// TestCOWBootAllocatesNoPages is the headline property: a fresh COW bus has
// zero private pages and reads exactly the template's bytes.
func TestCOWBootAllocatesNoPages(t *testing.T) {
	tmpl := cowFixture()
	b := NewBusCOW(tmpl, nil)
	if got := b.DirtyPages(); got != 0 {
		t.Fatalf("fresh COW bus has %d dirty pages, want 0", got)
	}
	for _, addr := range []uint16{0, 1, 0x00FF, 0x0100, 0x7FFF, 0xFFFE, 0xFFFF} {
		if got, want := b.Peek8(addr), tmpl.Image()[addr]; got != want {
			t.Fatalf("Peek8(%#04x) = %#02x, want template byte %#02x", addr, got, want)
		}
	}
	if got := b.DirtyPages(); got != 0 {
		t.Fatalf("reads faulted %d pages in, want 0", got)
	}
}

// TestCOWWriteFaultPerPath drives each write path through a fresh COW bus and
// asserts it (a) takes effect on the bus, (b) dirties exactly the touched
// pages, and (c) never reaches the shared template.
func TestCOWWriteFaultPerPath(t *testing.T) {
	paths := []struct {
		name  string
		write func(b *Bus) (addrs []uint16) // returns addresses to re-read
		pages int
	}{
		{"Write16", func(b *Bus) []uint16 {
			if v := b.Write16(0x4000, 0xBEEF); v != nil {
				t.Fatalf("Write16 violation: %v", v)
			}
			return []uint16{0x4000, 0x4001}
		}, 1},
		{"Write8", func(b *Bus) []uint16 {
			if v := b.Write8(0x4100, 0x5A); v != nil {
				t.Fatalf("Write8 violation: %v", v)
			}
			return []uint16{0x4100}
		}, 1},
		{"Poke16", func(b *Bus) []uint16 {
			b.Poke16(0x4200, 0xCAFE)
			return []uint16{0x4200, 0x4201}
		}, 1},
		{"Poke8", func(b *Bus) []uint16 {
			b.Poke8(0x4300, 0xA7)
			return []uint16{0x4300}
		}, 1},
		{"LoadBytes", func(b *Bus) []uint16 {
			// Spans a page boundary: both pages must fault.
			b.LoadBytes(0x44F0, make([]byte, 0x20))
			addrs := make([]uint16, 0x20)
			for i := range addrs {
				addrs[i] = 0x44F0 + uint16(i)
			}
			return addrs
		}, 2},
	}
	for _, tc := range paths {
		t.Run(tc.name, func(t *testing.T) {
			tmpl := cowFixture()
			before := *tmpl.Image()
			b := NewBusCOW(tmpl, nil)
			addrs := tc.write(b)
			if got := b.DirtyPages(); got != tc.pages {
				t.Fatalf("%s dirtied %d pages, want %d", tc.name, got, tc.pages)
			}
			if *tmpl.Image() != before {
				t.Fatalf("%s leaked through to the shared template", tc.name)
			}
			// The write took effect on the bus.
			for _, a := range addrs {
				if b.Peek8(a) == before[a] && tc.name != "LoadBytes" {
					t.Fatalf("%s: byte at %#04x unchanged (%#02x)", tc.name, a, b.Peek8(a))
				}
			}
			// Untouched bytes of the faulted page still match the template.
			page := addrs[0] &^ uint16(pageMask)
			for off := uint16(0); off < PageSize; off++ {
				a := page + off
				touched := false
				for _, w := range addrs {
					if a == w {
						touched = true
					}
				}
				if !touched && b.Peek8(a) != before[a] {
					t.Fatalf("%s: untouched byte %#04x corrupted by fault-in", tc.name, a)
				}
			}
		})
	}
}

// TestCOWMatchesFlatOracle runs an identical write/read workload over a COW
// bus and a flat clone of the same image; the full final memory must match
// byte for byte.
func TestCOWMatchesFlatOracle(t *testing.T) {
	tmpl := cowFixture()
	cow := NewBusCOW(tmpl, nil)
	flat := NewBusFrom(tmpl.Image())

	workload := func(b *Bus) {
		rng := uint32(0x1234)
		for i := 0; i < 4096; i++ {
			rng = rng*1664525 + 1013904223
			// Keep the workload in the lower half of the space so some pages
			// provably stay shared (the final assertion below).
			addr := uint16(rng>>16) & 0x7FFF
			switch i % 5 {
			case 0:
				b.Poke16(addr, uint16(rng))
			case 1:
				b.Poke8(addr, uint8(rng))
			case 2:
				b.Write16(align(addr), uint16(rng))
			case 3:
				b.Write8(addr, uint8(rng))
			case 4:
				b.LoadBytes(addr, []byte{byte(rng), byte(rng >> 8), byte(rng >> 16)})
			}
		}
	}
	workload(cow)
	workload(flat)

	var a, b BusImage
	cow.SnapshotData(&a)
	flat.SnapshotData(&b)
	if a != b {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("COW and flat memory diverge first at %#04x: cow=%#02x flat=%#02x", i, a[i], b[i])
			}
		}
	}
	if cow.DirtyPages() >= numPages {
		t.Fatalf("workload dirtied all %d pages; test lost its COW coverage", numPages)
	}
}

// TestCOWArenaRecycling checks the page lifecycle: released pages return to
// the arena poisoned, the next device reuses them, and a recycled page never
// shows the prior device's bytes — the fault-in copy fully overwrites it.
func TestCOWArenaRecycling(t *testing.T) {
	tmpl := cowFixture()
	arena := NewPageArena()

	// Device 1 dirties two pages with a recognizable value and retires.
	d1 := NewBusCOW(tmpl, arena)
	for off := uint16(0); off < PageSize; off++ {
		d1.Poke8(0x5000+off, 0xDE)
		d1.Poke8(0x6000+off, 0xAD)
	}
	if got := d1.DirtyPages(); got != 2 {
		t.Fatalf("device 1 dirtied %d pages, want 2", got)
	}
	d1.ReleasePages()
	if got := d1.DirtyPages(); got != 0 {
		t.Fatalf("after ReleasePages: %d dirty pages, want 0", got)
	}
	// The released bus reverted to a clean template view.
	if got, want := d1.Peek8(0x5000), tmpl.Image()[0x5000]; got != want {
		t.Fatalf("released bus reads %#02x at 0x5000, want template byte %#02x", got, want)
	}
	if got := arena.FreePages(); got != 2 {
		t.Fatalf("arena holds %d free pages, want 2", got)
	}

	// Device 2 faults a different page through the arena: it must see the
	// template's bytes, not device 1's 0xDE/0xAD or the 0xA5 poison.
	d2 := NewBusCOW(tmpl, arena)
	d2.Poke8(0x7000, 0x11) // faults page 0x70 using a recycled page
	gets, puts := arena.Stats()
	if gets != 1 || puts != 2 {
		t.Fatalf("arena stats gets=%d puts=%d, want 1 and 2", gets, puts)
	}
	for off := uint16(1); off < PageSize; off++ {
		a := 0x7000 + off
		if got, want := d2.Peek8(a), tmpl.Image()[a]; got != want {
			t.Fatalf("recycled page leaked byte %#02x at %#04x (template has %#02x)", got, a, want)
		}
	}

	// Direct poison check: pages parked in the arena are wholly 0xA5.
	pg := arena.get()
	if pg == nil {
		t.Fatal("arena unexpectedly empty")
	}
	for i, v := range pg {
		if v != poisonByte {
			t.Fatalf("parked arena page byte %d is %#02x, want poison %#02x", i, v, poisonByte)
		}
	}
}

// TestCOWTableSharing pins the boot-footprint mechanism: a fresh COW bus
// aliases the template's page-pointer table and only clones it on the first
// fault, so boot-only devices never allocate the 2 KiB table either.
func TestCOWTableSharing(t *testing.T) {
	tmpl := cowFixture()
	b := NewBusCOW(tmpl, nil)
	if b.ownTable {
		t.Fatal("fresh COW bus owns its page table; want shared with template")
	}
	if b.mem != &tmpl.table {
		t.Fatal("fresh COW bus does not alias the template's table")
	}
	b.Poke8(0x1234, 0x42)
	if !b.ownTable {
		t.Fatal("write-fault did not privatize the page table")
	}
	if tmpl.table[0x12] != (*dataPage)(tmpl.Image()[0x1200:0x1300]) {
		t.Fatal("fault mutated the template's canonical table")
	}
	b.ReleasePages()
	if b.ownTable || b.mem != &tmpl.table {
		t.Fatal("released COW bus does not alias the template's table again")
	}
}

// TestCOWTableRecycledAcrossTemplates: a page table released by a bus on one
// template serves the first fault of a bus on another template sharing the
// arena, and that bus is byte-for-byte the flat oracle of its own template.
func TestCOWTableRecycledAcrossTemplates(t *testing.T) {
	tmplA := cowFixture()
	imgB := new(BusImage)
	for i := range imgB {
		imgB[i] = byte(i>>8) + 3*byte(i) + 0x5C
	}
	tmplB := NewTemplate(imgB)
	arena := NewPageArena()

	a := NewBusCOW(tmplA, arena)
	for off := uint16(0); off < PageSize; off++ {
		a.Poke8(0x3000+off, 0xEE)
	}
	a.Poke16(0xC000, 0xBEEF)
	a.ReleasePages()
	if gets, puts := arena.tableGets, arena.tablePuts; gets != 0 || puts != 1 {
		t.Fatalf("after release: table gets=%d puts=%d, want 0 and 1", gets, puts)
	}

	b := NewBusCOW(tmplB, arena)
	oracle := NewBusFrom(tmplB.Image())
	for _, bus := range []*Bus{b, oracle} {
		bus.Poke16(0x4410, 0x1234)
		bus.Poke8(0x3005, 0x77)
	}
	if gets, puts := arena.tableGets, arena.tablePuts; gets != 1 || puts != 1 {
		t.Fatalf("after B's fault: table gets=%d puts=%d, want 1 and 1", gets, puts)
	}
	var got, want BusImage
	b.SnapshotData(&got)
	oracle.SnapshotData(&want)
	if got != want {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("recycled table: byte %#04x is %#02x, oracle has %#02x", i, got[i], want[i])
			}
		}
	}
	if b.DirtyPages() != 2 {
		t.Fatalf("bus on template B dirtied %d pages, want 2", b.DirtyPages())
	}
}

// TestFlatBusReleaseIsNoop locks the fleet runner's unconditional
// ReleasePages call: on a flat (oracle) bus it must change nothing.
func TestFlatBusReleaseIsNoop(t *testing.T) {
	b := NewBus()
	b.Poke16(0x8000, 0x1337)
	b.ReleasePages()
	if got := b.Peek16(0x8000); got != 0x1337 {
		t.Fatalf("ReleasePages on a flat bus clobbered memory: %#04x", got)
	}
	if got := b.DirtyPages(); got != numPages {
		t.Fatalf("flat bus DirtyPages() = %d, want %d", got, numPages)
	}
}
