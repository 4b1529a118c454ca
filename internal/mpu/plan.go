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
	key planKey
	// first is the first successor recorded: most records have exactly one
	// (each step of a gate's register sequence leads to the next), and it
	// shares the key's cache line. next holds the rest.
	first atomic.Pointer[plan]
	// runs is interned: two records whose execute runs are equal share one
	// pointer, so a configuration change that leaves execute rights alone
	// is recognized by a pointer compare (see Unit.bump).
	runs        *execRuns
	read, write mem.PageSet
	// next holds successor edges: records a unit in this configuration has
	// moved to. Gate code walks the same chain of configurations at every
	// crossing (OS plan, three intermediate states, app plan and back), so
	// after the first crossing every register write finds its successor
	// here. Edges are hints published atomically; the record's permissions
	// never change.
	next [planEdges]atomic.Pointer[plan]
}

// execRuns is a set of execute runs [lo, hi), ascending (at most 6).
type execRuns struct {
	n      int
	lo, hi [8]uint32
}

// planKey is the part of the unit's state that decides every permission,
// packed into one word: SEGB1, SEGB2, SAM, the CTL0 enable/lock bits, and
// whether the capability is CapabilityAdvanced (the only capability
// segmentOf tells apart).
type planKey uint64

// hash spreads a key over the edge and store slots (Fibonacci hashing: the
// boundary registers carry only six significant bits each).
func (k planKey) hash() uint32 {
	return uint32(uint64(k) * 0x9E3779B97F4A7C15 >> 32)
}

// planEdges bounds a record's successor edges. The busiest record, the OS
// plan, has one successor per app (the first boundary write of the switch
// into that app).
const planEdges = 16

// The shared plan and run stores are fixed tables of pointers probed in
// groups of storeWays, so adversarial register traffic (the torture harness
// writes arbitrary values) can at worst replace entries, never grow a store.
// Entries are published atomically; they never change after publication,
// so any goroutine may read one it finds.
const (
	planStoreSlots = 4096
	runStoreSlots  = 1024
	storeWays      = 4
)

var (
	planStore [planStoreSlots]atomic.Pointer[plan]
	runStore  [runStoreSlots]atomic.Pointer[execRuns]
	// storeLookups counts trips to the shared plan store: every
	// configuration change that no successor edge answered.
	storeLookups atomic.Uint64
)

// openPlan is the disabled unit's record: everything allowed.
var openPlan = &plan{
	runs:  &execRuns{n: 1, hi: [8]uint32{0x10000}},
	read:  mem.PageSet{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
	write: mem.PageSet{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
}

// successor returns the record for k, which u's registers now hold, coming
// from record p: through p's edges when one matches, else from the shared
// store, recording the edge for next time.
func (p *plan) successor(k planKey, u *Unit) *plan {
	if n := p.first.Load(); n != nil && n.key == k {
		return n
	}
	h := k.hash()
	for i := uint32(0); i < planEdges; i++ {
		e := &p.next[(h+i)%planEdges]
		n := e.Load()
		if n == nil {
			n = lookupPlan(k, h, u)
			if !p.first.CompareAndSwap(nil, n) {
				e.CompareAndSwap(nil, n)
			}
			return n
		}
		if n.key == k {
			return n
		}
	}
	// Every edge is taken: replace the one k hashes to.
	n := lookupPlan(k, h, u)
	p.next[h%planEdges].Store(n)
	return n
}

// lookupPlan returns the shared record for k (hash h), building it from u —
// whose current configuration is k — on a miss.
func lookupPlan(k planKey, h uint32, u *Unit) *plan {
	storeLookups.Add(1)
	base := h % planStoreSlots &^ (storeWays - 1)
	for i := base; i < base+storeWays; i++ {
		if p := planStore[i].Load(); p != nil && p.key == k {
			return p
		}
	}
	p := newPlan(k, u)
	for i := base; i < base+storeWays; i++ {
		if planStore[i].CompareAndSwap(nil, p) {
			return p
		}
	}
	// A full group evicts the way picked by hash bits the group index
	// does not use.
	planStore[base+h>>12%storeWays].Store(p)
	return p
}

// internRuns returns the shared copy of r, publishing r itself when the run
// store holds no equal set. An evicted set only costs a later equal one a
// pointer of its own, which the unit reads as an execute-rights change.
func internRuns(r *execRuns) *execRuns {
	h := uint64(r.n)
	for i := 0; i < r.n; i++ {
		h = (h*31+uint64(r.lo[i]))*31 + uint64(r.hi[i])
	}
	h32 := uint32(h * 0x9E3779B97F4A7C15 >> 32)
	base := h32 % runStoreSlots &^ (storeWays - 1)
	for i := base; i < base+storeWays; i++ {
		if q := runStore[i].Load(); q != nil && *q == *r {
			return q
		}
	}
	for i := base; i < base+storeWays; i++ {
		if runStore[i].CompareAndSwap(nil, r) {
			return r
		}
	}
	runStore[base+h32>>10%storeWays].Store(r)
	return r
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
	runs := new(execRuns)
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
		if runs.n > 0 && runs.hi[runs.n-1] == ilo {
			runs.hi[runs.n-1] = ihi
			continue
		}
		runs.lo[runs.n], runs.hi[runs.n] = ilo, ihi
		runs.n++
	}
	p.runs = internRuns(runs)
	return p
}

// uncheckedPages holds, per capability, the pages no configuration can
// deny any access to: every word on them lies outside the unit's coverage
// (segmentOf < 0, which depends on the capability alone). On the FR5969
// that is every page outside FRAM and InfoMem — the peripheral registers,
// the BSL window and SRAM, which the paper names as the part's flaw.
var uncheckedPages = func() (s [2]mem.PageSet) {
	for c := range s {
		u := &Unit{Cap: Capability(c)}
		for p := 0; p < 256; p++ {
			covered := false
			for a := p << 8; a < (p+1)<<8; a++ {
				covered = covered || u.segmentOf(uint16(a)) >= 0
			}
			if !covered {
				s[c].Add(p)
			}
		}
	}
	return s
}()
