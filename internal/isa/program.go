package isa

// Predecoded program cache. The paper's threat model makes application and
// OS text immutable at run time (load-time verified, execute-only under the
// MPU plans), which is exactly the property execute-only-memory systems
// exploit: code that cannot change need only be decoded once. A Program is
// that decode-once cache — every word-aligned offset of the firmware's text
// ranges decoded up front into a dense array of CachedInstr (pre-resolved
// operands and cycle costs) indexed by (pc - base) >> 1.
//
// The cache is a pure function of the image bytes: it holds no bus or device
// state, so one Program built from a linked image serves any number of
// concurrently running machines (the fleet engine shares one per
// (app-set, mode) build). Correctness under self-modifying or hostile code is
// the CPU's job: it tracks overwritten code words and falls back to the live
// decoder for them (see cpu.UseProgram).

import "sync"

// TextRange is one executable text span [Lo, Hi) of an image. Ranges must
// not wrap the address space.
type TextRange struct {
	Lo, Hi uint16
}

// CachedInstr is one predecoded instruction slot.
type CachedInstr struct {
	In   Instr
	Size uint16 // encoded size in bytes; 0 marks an uncacheable slot
	Cost uint16 // Cycles(In), precomputed
	// H is the threaded-dispatch handler bound at predecode (see thread.go);
	// HNone routes the slot through the CPU's classic switch executor.
	H HandlerID
}

// Program is a decode-once cache over an image's text ranges.
type Program struct {
	base   uint16
	ins    []CachedInstr
	ranges []TextRange
	cached int
	// blocks are the superblocks discovered for the block JIT (see jit.go);
	// empty when SetJIT was off at build time.
	blocks []Block
	// jitOnce/jitPlan hold the compiled executor plan a CPU package binds to
	// this program (see JITPlan). The plan lives on the Program — not in a
	// global table — so it shares the Program's lifetime and, like the
	// decode cache itself, is built once and shared by every machine running
	// this firmware.
	jitOnce sync.Once
	jitPlan any
}

// Predecode decodes every word-aligned offset of the given text ranges
// through r (typically a linked image or a freshly loaded bus). Offsets that
// do not decode, or whose extension words would spill past the end of their
// text range (into mutable data the cache cannot watch), are left
// uncacheable and serviced by the CPU's live-decode path.
func Predecode(r WordReader, ranges []TextRange) *Program {
	// Degenerate ranges (Hi <= Lo) cover nothing; dropping them here also
	// keeps the slot-count arithmetic below from underflowing.
	valid := make([]TextRange, 0, len(ranges))
	for _, tr := range ranges {
		if tr.Hi > tr.Lo {
			valid = append(valid, tr)
		}
	}
	ranges = valid
	if len(ranges) == 0 {
		return nil
	}
	base, end := ranges[0].Lo, ranges[0].Hi
	for _, tr := range ranges[1:] {
		if tr.Lo < base {
			base = tr.Lo
		}
		if tr.Hi > end {
			end = tr.Hi
		}
	}
	base &^= 1
	p := &Program{
		base:   base,
		ins:    make([]CachedInstr, (uint32(end)-uint32(base)+1)/2),
		ranges: append([]TextRange(nil), ranges...),
	}
	thread := ThreadingEnabled()
	for _, tr := range ranges {
		// An odd Lo rounds UP: the partial word below it lies outside the
		// watched range, so caching it could never be invalidated.
		for a := (tr.Lo + 1) &^ 1; a+1 < tr.Hi && a >= tr.Lo; a += 2 {
			in, size, err := Decode(r, a)
			if err != nil || uint32(a)+uint32(size) > uint32(tr.Hi) {
				continue // uncacheable: live decode handles it
			}
			e := CachedInstr{In: in, Size: size, Cost: uint16(Cycles(in))}
			if thread {
				e.H = HandlerFor(in)
			}
			p.ins[(a-base)>>1] = e
			p.cached++
		}
	}
	if JITEnabled() {
		p.discoverBlocks()
	}
	return p
}

// At returns the cached slot for pc, or nil when pc lies outside the cached
// text or the slot is uncacheable. pc must be even (the CPU's PC always is).
func (p *Program) At(pc uint16) *CachedInstr {
	if pc < p.base {
		return nil
	}
	idx := int(pc-p.base) >> 1
	if idx >= len(p.ins) {
		return nil
	}
	e := &p.ins[idx]
	if e.Size == 0 {
		return nil
	}
	return e
}

// Ranges returns the text ranges the cache covers (the spans a bus watch
// must guard against writes). The slice is a fresh copy on EVERY call — the
// Program is shared read-only across machines, so callers must not be able
// to mutate the backing array, and memoizing one copy would just move the
// aliasing hazard to whichever caller got it first. Allocation-sensitive
// callers (per-device boot paths) should iterate with NumRanges/RangeAt
// instead of calling this in a loop.
func (p *Program) Ranges() []TextRange { return append([]TextRange(nil), p.ranges...) }

// NumRanges returns how many text ranges the cache covers.
func (p *Program) NumRanges() int { return len(p.ranges) }

// RangeAt returns the i-th text range — the allocation-free companion to
// Ranges for hot boot paths.
func (p *Program) RangeAt(i int) TextRange { return p.ranges[i] }

// Cached returns how many instruction slots decoded successfully —
// introspection for tests and tooling.
func (p *Program) Cached() int { return p.cached }

// Blocks returns how many superblocks discovery found — introspection for
// tests and tooling, beside Cached.
func (p *Program) Blocks() int { return len(p.blocks) }

// BlockSpans returns the discovered superblocks, sorted by address. The
// slice is shared and must be treated as read-only (it is consumed once per
// Program by the JIT plan build, not per device).
func (p *Program) BlockSpans() []Block { return p.blocks }

// Base returns the lowest word-aligned address the cache covers, and Slots
// the number of word slots from it — together they define the slot indexing
// ((pc - Base) >> 1) a JIT plan mirrors for its block table.
func (p *Program) Base() uint16 { return p.base }

// Slots returns the number of word-aligned instruction slots in the cache.
func (p *Program) Slots() int { return len(p.ins) }

// JITPlan returns the compiled-executor plan bound to this program, building
// it on first use via build. The plan type is opaque to isa (the CPU package
// owns the executors); storing it here gives it exactly the Program's
// lifetime and shares one compile across every machine and fleet device
// running this firmware. Concurrent callers coalesce on the one build.
func (p *Program) JITPlan(build func() any) any {
	p.jitOnce.Do(func() { p.jitPlan = build() })
	return p.jitPlan
}
