package mem

import "fmt"

// maxDevices bounds how many Map registrations one bus holds. A booted
// kernel maps five devices (CPU ports, Timer_A, MPY32, MPU registers, kernel
// ports); the rest is headroom for tests that interpose on a live bus.
const maxDevices = 16

// devRange is one Map registration: the inclusive span [lo, hi] and the index
// of its device in the bus's device array.
type devRange struct {
	lo, hi uint16
	dev    uint8
}

// Layout is a bus's device map: every Map registration in order, and the
// page-indexed dispatch table built from them. It names devices by their
// index in the bus's device array, never by value, so one Layout serves
// every bus that registers the same spans in the same order — a boot
// template builds it once and the devices booted from it share it, each bus
// binding only its own Device values. A shared Layout is immutable.
type Layout struct {
	ranges []devRange
	// pages[addr>>8] is 1+index into lists for pages overlapped by any
	// range (0 otherwise), so the common case (plain memory, no device) is
	// one table load. Per-page lists preserve registration order.
	pages [numPages]uint16
	lists [][]devRange
	// set marks the pages overlapped by any range.
	set PageSet
	// shared freezes the layout: a bus extending it copies it first.
	shared bool
}

// noDevices is the layout of a bus with nothing mapped.
var noDevices = &Layout{shared: true}

// clone returns a private, unfrozen copy of l that extends without touching
// l's slices.
func (l *Layout) clone() *Layout {
	c := &Layout{pages: l.pages, set: l.set}
	c.ranges = append([]devRange(nil), l.ranges...)
	c.lists = make([][]devRange, len(l.lists))
	for i, rs := range l.lists {
		c.lists[i] = append([]devRange(nil), rs...)
	}
	return c
}

// add appends the registration r to l's table.
func (l *Layout) add(r devRange) {
	l.ranges = append(l.ranges, r)
	for p := int(r.lo >> pageShift); p <= int(r.hi>>pageShift); p++ {
		l.set.Add(p)
		idx := l.pages[p]
		if idx == 0 {
			l.lists = append(l.lists, nil)
			idx = uint16(len(l.lists))
			l.pages[p] = idx
		}
		l.lists[idx-1] = append(l.lists[idx-1], r)
	}
}

// UseLayout makes l the bus's device map before any device is mapped: the
// Map calls that follow bind their devices to l's registrations, in order,
// instead of building a table (see Map). l must come from Layout on a bus
// whose Map calls the caller repeats.
func (b *Bus) UseLayout(l *Layout) {
	if b.ndev != 0 {
		panic("mem: UseLayout on a bus with mapped devices")
	}
	b.layout = l
}

// Layout returns the bus's device map, frozen for sharing: buses that
// UseLayout it and repeat this bus's Map calls dispatch exactly as this bus
// does. Later Map calls on this bus extend a private copy.
func (b *Bus) Layout() *Layout {
	if !b.layout.shared { // shared layouts are never written
		b.layout.shared = true
	}
	return b.layout
}

// Map registers a peripheral device over [lo, hi]. Later registrations take
// priority over earlier ones, allowing tests to interpose. While the bus's
// layout (see UseLayout) already holds a registration at this position, Map
// only binds d to it — the span must match; past that it extends a private
// layout, copying a shared one first. The table is maintained
// incrementally, so Map stays cheap enough for per-test buses.
func (b *Bus) Map(lo, hi uint16, d Device) {
	if b.ndev == maxDevices {
		panic(fmt.Sprintf("mem: more than %d devices mapped", maxDevices))
	}
	r := devRange{lo, hi, uint8(b.ndev)}
	if b.ndev < len(b.layout.ranges) {
		if b.layout.ranges[b.ndev] != r {
			panic(fmt.Sprintf("mem: Map(0x%04X, 0x%04X) does not match the bus layout", lo, hi))
		}
	} else {
		if b.layout.shared {
			b.layout = b.layout.clone()
		}
		b.layout.add(r)
	}
	b.devs[b.ndev] = d
	b.ndev++
	b.dataGen = ^uint64(0)
	for p := int(lo >> pageShift); p <= int(hi>>pageShift); p++ {
		if !b.watch.pages.Has(p) && !bslPages.Has(p) {
			b.devW.Add(p)
		}
	}
}

// deviceAt returns the device mapped at addr, or nil. Dispatch goes through
// the page table; per-page lists preserve global registration order, so the
// reverse scan keeps the later-registration-wins contract of deviceAtLinear.
func (b *Bus) deviceAt(addr uint16) Device {
	l := b.layout
	idx := l.pages[addr>>pageShift]
	if idx == 0 {
		return nil
	}
	entries := l.lists[idx-1]
	for i := len(entries) - 1; i >= 0; i-- {
		if addr >= entries[i].lo && addr <= entries[i].hi {
			return b.devs[entries[i].dev]
		}
	}
	return nil
}

// deviceAtLinear is the pre-page-table reference implementation, kept as the
// oracle the page table is tested against.
func (b *Bus) deviceAtLinear(addr uint16) Device {
	rs := b.layout.ranges
	for i := len(rs) - 1; i >= 0; i-- {
		if addr >= rs[i].lo && addr <= rs[i].hi {
			return b.devs[rs[i].dev]
		}
	}
	return nil
}
