package mpu

import (
	"sync/atomic"

	"amuletiso/internal/mem"
)

// plan is the immutable record of what one MPU configuration allows: the
// maximal execute-allowed runs behind ExecSpan and the uniformly
// read-allowed and write-allowed pages behind DataPages. Records are built
// once per configuration per process and shared by every Unit, so a fleet
// of devices running the same firmware pays for each plan once.
type plan struct {
	key         planKey
	n           int
	lo, hi      [8]uint32 // execute runs [lo, hi), ascending (at most 6)
	read, write mem.PageSet
}

// planKey is the part of the unit's state that decides every permission:
// SEGB1, SEGB2, SAM and the CTL0 enable/lock bits packed into one word,
// plus the capability.
type planKey struct {
	regs uint64
	cap  Capability
}

// hash spreads a key over the memo and store slots (Fibonacci hashing: the
// boundary registers carry only six significant bits each).
func (k planKey) hash() uint32 {
	return uint32((k.regs ^ uint64(k.cap)<<62) * 0x9E3779B97F4A7C15 >> 32)
}

// unitMemoSlots sizes a unit's direct-mapped record memo (one pointer each).
const unitMemoSlots = 32

// The shared plan store is a fixed table of record pointers probed in
// groups of planStoreWays, so adversarial register traffic (the torture
// harness writes arbitrary values) can at worst replace records, never grow
// the store. Entries are published atomically; records never change after
// publication, so any goroutine may read one it finds.
const (
	planStoreSlots = 4096
	planStoreWays  = 4
)

var planStore [planStoreSlots]atomic.Pointer[plan]

// openPlan is the disabled unit's record: everything allowed.
var openPlan = &plan{
	n: 1, hi: [8]uint32{0x10000},
	read:  mem.PageSet{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
	write: mem.PageSet{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
}

// lookupPlan returns the shared record for k (hash h), building it from u —
// whose current configuration is k — on a miss.
func lookupPlan(k planKey, h uint32, u *Unit) *plan {
	base := h % planStoreSlots &^ (planStoreWays - 1)
	for i := base; i < base+planStoreWays; i++ {
		if p := planStore[i].Load(); p != nil && p.key == k {
			return p
		}
	}
	p := newPlan(k, u)
	for i := base; i < base+planStoreWays; i++ {
		if planStore[i].CompareAndSwap(nil, p) {
			return p
		}
	}
	// A full group evicts the way picked by hash bits the group index
	// does not use.
	planStore[base+h>>12%planStoreWays].Store(p)
	return p
}

// newPlan computes the record for u's current configuration. Permission is
// piecewise-constant between the cut points: the fixed region map plus the
// two configurable boundaries. Extra cut points inside a uniform region are
// harmless (both halves evaluate the same), so the boundaries need no
// clamping. A page is on a data map only if no interval touching it denies
// that access and no cut point splits it (the debug window's page and the
// FRAM/vector page 0xFF stay off both maps).
func newPlan(k planKey, u *Unit) *plan {
	p := &plan{key: k, read: openPlan.read, write: openPlan.write}
	cuts := [11]uint32{
		0,
		uint32(mem.InfoLo), uint32(mem.InfoHi) + 1,
		uint32(mem.FRAMLo), uint32(mem.FRAMHi) + 1,
		uint32(mem.VectLo),
		uint32(mem.DebugLo), uint32(mem.DebugHi) + 1,
		uint32(u.segB1), uint32(u.segB2),
		0x10000,
	}
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	for _, c := range cuts {
		if c&0xFF != 0 {
			p.read.Clear(int(c >> 8))
			p.write.Clear(int(c >> 8))
		}
	}
	for i := 0; i+1 < len(cuts); i++ {
		ilo, ihi := cuts[i], cuts[i+1]
		if ihi <= ilo {
			continue
		}
		a := uint16(ilo)
		if rd, wr := u.allows(a, 1), u.allows(a, 2); !rd || !wr {
			for pg := int(ilo >> 8); pg <= int((ihi-1)>>8); pg++ {
				if !rd {
					p.read.Clear(pg)
				}
				if !wr {
					p.write.Clear(pg)
				}
			}
		}
		if !u.allows(a, 4) {
			continue
		}
		// Merge consecutive allowed intervals into maximal runs.
		if p.n > 0 && p.hi[p.n-1] == ilo {
			p.hi[p.n-1] = ihi
			continue
		}
		p.lo[p.n], p.hi[p.n] = ilo, ihi
		p.n++
	}
	return p
}
