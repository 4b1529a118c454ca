package mem

import (
	"fmt"
	"testing"
)

// namedDev is a trivially distinguishable device for dispatch tests.
type namedDev struct{ name string }

func (d *namedDev) DeviceName() string              { return d.name }
func (d *namedDev) ReadWord(addr uint16) uint16     { return 0 }
func (d *namedDev) WriteWord(addr uint16, v uint16) {}

// TestPageTableMatchesLinearScan maps a realistic (and adversarial) device
// set and checks, for every boundary address of every mapped region — lo,
// hi, lo-1, hi+1 — that the page-table dispatch returns exactly the device
// the reference linear scan does. Overlapping registrations exercise the
// later-registration-wins contract.
func TestPageTableMatchesLinearScan(t *testing.T) {
	type mapping struct {
		lo, hi uint16
		name   string
	}
	// The real buses' shapes: sub-page windows, page-straddling spans,
	// multi-page spans, an interposing overlap, and the address-space edges.
	mappings := []mapping{
		{0x01E0, 0x01FF, "ports"},      // sub-page window (cpu debug ports)
		{0x0340, 0x035E, "timer"},      // Timer_A-style block
		{0x04C0, 0x04CB, "mpy"},        // MPY32 block
		{0x05A0, 0x05AA, "mpu-regs"},   // MPU register file
		{0x01F0, 0x01F7, "interposer"}, // overlaps "ports": later wins
		{0x00F0, 0x0210, "straddler"},  // crosses two page boundaries
		{0x1000, 0x2FFF, "wide"},       // many whole pages
		{0x0000, 0x0001, "bottom"},     // address-space low edge
		{0xFFFE, 0xFFFF, "top"},        // address-space high edge
	}
	b := NewBus()
	for _, m := range mappings {
		b.Map(m.lo, m.hi, &namedDev{m.name})
	}

	seen := map[uint16]bool{}
	for _, m := range mappings {
		for _, addr := range []uint16{m.lo, m.hi, m.lo - 1, m.hi + 1} {
			if seen[addr] {
				continue
			}
			seen[addr] = true
			t.Run(fmt.Sprintf("%s/0x%04X", m.name, addr), func(t *testing.T) {
				want := b.deviceAtLinear(addr)
				got := b.deviceAt(addr)
				if got != want {
					t.Errorf("deviceAt(0x%04X) = %v, linear scan = %v",
						addr, devName(got), devName(want))
				}
			})
		}
	}
}

// TestPageTableEveryAddress sweeps the full 64 KiB space once as a
// belt-and-braces equivalence check (fast: one comparison per address).
func TestPageTableEveryAddress(t *testing.T) {
	b := NewBus()
	b.Map(0x01E0, 0x01FF, &namedDev{"ports"})
	b.Map(0x01F0, 0x01F3, &namedDev{"interposer"})
	b.Map(0x7FF0, 0x800F, &namedDev{"straddler"})
	b.Map(0xFFF0, 0xFFFF, &namedDev{"top"})
	for a := 0; a <= 0xFFFF; a++ {
		addr := uint16(a)
		if got, want := b.deviceAt(addr), b.deviceAtLinear(addr); got != want {
			t.Fatalf("deviceAt(0x%04X) = %v, linear scan = %v", addr, devName(got), devName(want))
		}
	}
}

func devName(d Device) string {
	if d == nil {
		return "<none>"
	}
	return d.DeviceName()
}

// TestSharedLayout: a bus bound to another bus's layout dispatches every
// address to its own device at the same registration, and a registration
// past the shared ones (a test interposing on a template-booted bus)
// extends a private copy that neither the original bus nor another sharer
// sees. A Map that does not repeat the layout's registration panics.
func TestSharedLayout(t *testing.T) {
	spans := [][2]uint16{{0x01E0, 0x01FF}, {0x0340, 0x035E}, {0x00F0, 0x0210}, {0xFFF0, 0xFFFF}}
	bind := func(b *Bus, tag string) {
		for i, s := range spans {
			b.Map(s[0], s[1], &namedDev{fmt.Sprintf("%s%d", tag, i)})
		}
	}
	origin := NewBus()
	bind(origin, "o")
	l := origin.Layout()
	a, c := NewBus(), NewBus()
	a.UseLayout(l)
	bind(a, "a")
	c.UseLayout(l)
	bind(c, "c")
	if a.layout != l || c.layout != l {
		t.Fatal("binding Map calls copied the shared layout")
	}
	a.Map(0x01F0, 0x01F3, &namedDev{"interposer"})
	origin.Map(0x4400, 0x4401, &namedDev{"late"})
	if len(l.ranges) != len(spans) {
		t.Fatalf("shared layout grew to %d registrations", len(l.ranges))
	}
	for x := 0; x <= 0xFFFF; x++ {
		addr := uint16(x)
		want := devName(origin.deviceAtLinear(addr))
		if len(want) > 1 && want[0] == 'o' {
			want = want[1:]
		}
		for _, b := range []struct {
			bus *Bus
			tag string
		}{{a, "a"}, {c, "c"}} {
			got := devName(b.bus.deviceAt(addr))
			exp := "<none>"
			switch {
			case b.bus == a && addr >= 0x01F0 && addr <= 0x01F3:
				exp = "interposer"
			case want != "<none>" && want != "late":
				exp = b.tag + want
			}
			if got != exp {
				t.Fatalf("bus %s: deviceAt(0x%04X) = %s, want %s", b.tag, addr, got, exp)
			}
		}
	}
	if got := devName(origin.deviceAt(0x4400)); got != "late" {
		t.Fatalf("origin lost its own late registration: %s", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a Map that does not match the shared layout did not panic")
		}
	}()
	d := NewBus()
	d.UseLayout(l)
	d.Map(0x01E0, 0x01FE, &namedDev{"off by one"})
}
