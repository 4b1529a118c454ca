// Package mem implements the 16-bit memory system of the simulated MCU: the
// flat 64 KiB address space, the MSP430FR5969-style region map (peripheral
// registers, InfoMem, SRAM, main FRAM, interrupt vectors), memory-mapped
// peripheral devices, and the access-check and profiling hooks that the MPU
// model and the resource profiler attach to.
//
// The region map matters to the reproduction: the paper's central complaint
// is that the FRAM MPU covers only main FRAM, leaving peripheral registers,
// SRAM and the interrupt vectors unprotected, which forces the hybrid
// MPU+compiler design. Those coverage holes are architectural constants here.
package mem

import (
	"fmt"
	"math/bits"

	"amuletiso/internal/engine"
)

// MSP430FR5969-style memory map. All bounds are inclusive.
const (
	PeriphLo uint16 = 0x0000 // peripheral / special-function registers
	PeriphHi uint16 = 0x0FFF
	BSLLo    uint16 = 0x1000 // bootstrap-loader ROM (read-only, unused)
	BSLHi    uint16 = 0x17FF
	InfoLo   uint16 = 0x1800 // information FRAM (512 B, MPU segment 0)
	InfoHi   uint16 = 0x19FF
	SRAMLo   uint16 = 0x1C00 // 2 KiB SRAM (OS stack; MPU cannot cover it)
	SRAMHi   uint16 = 0x23FF
	FRAMLo   uint16 = 0x4400 // main FRAM: OS + application code and data
	FRAMHi   uint16 = 0xFF7F
	VectLo   uint16 = 0xFF80 // interrupt vector table (in FRAM, MPU-exempt)
	VectHi   uint16 = 0xFFFF

	// DebugLo..DebugHi is the simulator's debug/OS port window (halt,
	// console, syscall, fault, yield). It is harness infrastructure, not
	// modeled hardware, so even the hypothetical "advanced" MPU leaves it
	// reachable.
	DebugLo uint16 = 0x01E0
	DebugHi uint16 = 0x01FF
)

// Kind is the type of a memory access.
type Kind uint8

// Access kinds.
const (
	Read    Kind = iota // data read
	Write               // data write
	Execute             // instruction fetch
)

// String returns "read", "write" or "execute".
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Execute:
		return "execute"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Access describes one memory access for check and profiling hooks.
type Access struct {
	Addr  uint16
	Kind  Kind
	Byte  bool   // byte-wide access (word otherwise)
	Value uint16 // value written (Write) or read (Read/Execute)
}

// Violation reports an access denied by a checker (normally the MPU model).
type Violation struct {
	Access Access
	Rule   string // human-readable description of the violated rule
}

func (v *Violation) Error() string {
	return fmt.Sprintf("mem: %s of 0x%04X denied: %s", v.Access.Kind, v.Access.Addr, v.Rule)
}

// Device is a memory-mapped peripheral. Devices are word-oriented; the bus
// synthesizes byte accesses from word operations. Addr is the absolute
// address of the accessed (word-aligned) register.
type Device interface {
	// DeviceName identifies the device in diagnostics.
	DeviceName() string
	// ReadWord returns the register value at the word-aligned address.
	ReadWord(addr uint16) uint16
	// WriteWord stores v to the register at the word-aligned address.
	WriteWord(addr uint16, v uint16)
}

// pageShift/PageSize/numPages size both the device dispatch table and the
// data backing: 256 pages of 256 bytes each cover the 64 KiB space. The page
// is also the copy-on-write unit — the first write to a template-shared page
// faults in a private 256-byte copy.
const (
	pageShift = 8
	// PageSize is the byte granularity of the bus's page table and therefore
	// of copy-on-write sharing: a device's idle data footprint is
	// DirtyPages() * PageSize bytes.
	PageSize = 1 << pageShift
	numPages = 1 << (16 - pageShift)
	pageMask = PageSize - 1
)

// PageSet is a bitmap over the bus's 256 pages.
type PageSet [numPages / 64]uint64

// Has reports whether page p is in the set.
func (s *PageSet) Has(p int) bool { return s[p>>6]&(1<<(p&63)) != 0 }

// Add puts page p in the set.
func (s *PageSet) Add(p int) { s[p>>6] |= 1 << (p & 63) }

// Clear removes page p from the set.
func (s *PageSet) Clear(p int) { s[p>>6] &^= 1 << (p & 63) }

// bslPages holds the pages of the bootstrap-loader ROM, which every write
// must reach the checked path to be refused.
var bslPages = func() (s PageSet) {
	for p := int(BSLLo >> pageShift); p <= int(BSLHi>>pageShift); p++ {
		s.Add(p)
	}
	return s
}()

// dataPage is one 256-byte unit of bus memory. Aligned word accesses never
// cross a page (an even address' low byte is at offset <= 0xFE), so the word
// paths touch exactly one page.
type dataPage [PageSize]byte

// CodeRange is one executable text span [Lo, Hi) backing a predecode cache;
// writes landing inside it must invalidate the cached instructions (see
// WatchCode).
type CodeRange struct {
	Lo, Hi uint16
}

// CodeWatch is the executable text a predecode cache covers: its ranges and
// the bitmap of the pages they overlap, which keeps the per-write cost off
// the watched ranges at a couple of bit tests. It is immutable once built:
// the cache owns it (isa.Program.Watch) and every bus watching that cache
// references it.
type CodeWatch struct {
	ranges []CodeRange
	pages  PageSet
}

// noCode is the watch of a bus with no predecode cache attached.
var noCode = &CodeWatch{}

// NewCodeWatch builds the watch over a copy of ranges. Empty ranges
// (Hi <= Lo) cover nothing.
func NewCodeWatch(ranges []CodeRange) *CodeWatch {
	w := &CodeWatch{ranges: append([]CodeRange(nil), ranges...)}
	for _, r := range ranges {
		if r.Hi <= r.Lo {
			continue
		}
		for p := int(r.Lo >> pageShift); p <= int((r.Hi-1)>>pageShift); p++ {
			w.pages.Add(p)
		}
	}
	return w
}

// CodeWriter is told of every write that lands inside watched text (see
// WatchCode).
type CodeWriter interface {
	// CodeWritten receives the overwritten byte span [lo, hi] (inclusive),
	// clamped to one watched range.
	CodeWritten(lo, hi uint16)
}

// Checker vets an access before it is performed. A nil return allows the
// access. The canonical Checker is the MPU model.
type Checker interface {
	CheckAccess(a Access) *Violation
}

// ExecCertifier is a Checker that can prove execute permission over whole
// spans, letting FetchWords hoist the per-word execute check out of the
// fetch path (the "fast execute-only memory" trick: enforcement moves to
// plan-change time without weakening the guarantee). Its data-access
// extension (dataCertifier) does the same for Read16 and Write16, page by
// page. Implementations must keep every certificate query pure: none may
// latch violation state the way CheckAccess does, which stays the
// enforcement oracle.
type ExecCertifier interface {
	Checker
	// ExecSpan returns the maximal span [lo, hi) containing addr for which
	// every instruction fetch is allowed under the current configuration
	// (empty when addr itself is not executable). hi is a uint32 so a span
	// may run through the top of the address space (hi = 0x10000).
	ExecSpan(addr uint16) (lo uint16, hi uint32)
	// ExecGen is a generation counter that advances on every configuration
	// change that could alter ExecSpan's answer. A certificate is valid
	// only while the generation it was issued at is current.
	ExecGen() uint64
}

// execGenRef is an optional ExecCertifier extension: a certifier that can
// expose the address of an execute generation lets the bus turn the
// per-fetch validity probe (an interface call on every certified
// instruction) into a single memory load. The pointee must advance on every
// configuration change that could alter ExecSpan's answer; unlike ExecGen it
// may stay put across changes that leave the execute runs as they were.
type execGenRef interface {
	ExecGenRef() *uint64
}

// dataCertifier is the data-access extension of an ExecCertifier: it proves
// read and write permission page by page, letting Read16 and Write16 skip the
// per-access check on plain memory the way FetchWords skips it inside an
// execute span, and names the pages it never checks, letting Write16 store to
// a device there without asking. Every query must be pure (no violation
// latching).
type dataCertifier interface {
	ExecCertifier
	execGenRef
	// DataPages returns the pages on which every read (read) and every
	// write (write) is allowed under the current configuration. The answer
	// holds while the value at DataGenRef is unchanged.
	DataPages() (read, write PageSet)
	// DataGenRef returns the address of the generation DataPages' answer is
	// valid for (ExecGen's value: every configuration change advances it).
	DataGenRef() *uint64
	// Unchecked returns the pages on which no access is denied under any
	// configuration the checker can take: its hardware's coverage holes.
	// The answer does not depend on any generation.
	Unchecked() *PageSet
}

// Bus is the CPU-visible memory system.
//
// Bus memory is page-granular: mem[addr>>8] points at the 256-byte page
// backing addr. A flat bus (NewBus, NewBusFrom) owns a private 64 KiB slab
// and points every page into it; a copy-on-write bus (NewBusCOW) starts with
// every page aliasing a shared immutable template and allocates nothing —
// the first write to a shared page faults in a private copy (see faultIn),
// so an idle device costs O(dirty pages) instead of 64 KiB. Reads never
// fault; writes through every path (checked, poke, loader) do.
//
// Devices dispatch through a Layout (see Map) that a bus may share with
// every other bus booted from the same template; the bus itself holds only
// its own Device values.
//
// The zero value is not usable; call NewBus, NewBusFrom or NewBusCOW, or
// InitFlat or InitCOW on a zero Bus embedded in a larger machine.
type Bus struct {
	// mem is the page-granular data view. Entries with a clear priv bit
	// alias the shared template (COW buses) and must never be written
	// through; entries with a set bit are private to this bus. A COW bus
	// starts by aliasing the template's canonical table wholesale (ownTable
	// false) and clones it on the first fault, so a boot-only device shares
	// even the 2 KiB of page pointers.
	mem *[numPages]*dataPage
	// ownTable records whether mem is private to this bus and mutable.
	ownTable bool
	// priv is the private-page bitmap: bit p set means mem[p] is owned by
	// this bus and writable in place. Flat buses have every bit set.
	priv [numPages / 64]uint64
	// tmpl is the template a COW bus was created over (nil for flat buses);
	// ReleasePages points recycled pages back at it.
	tmpl *Template
	// arena, when non-nil, supplies and recycles the private pages a COW
	// bus faults in (fleet runners share one across their devices).
	arena *PageArena
	// dirtied counts the private pages faulted in since creation (or the
	// last ReleasePages) — the COW bus's data footprint in pages.
	dirtied int

	// layout is the device map, possibly shared with other buses; devs
	// holds this bus's devices at the layout's indices, ndev of them bound.
	layout *Layout
	devs   [maxDevices]Device
	ndev   int

	// Code-write watch: the predecode cache's invalidation hook. watch is
	// the cache's own (never nil; noCode when no cache is attached) and
	// onCodeWrite the writer told of hits.
	watch       *CodeWatch
	onCodeWrite CodeWriter
	// devW marks the device pages with no watched text and outside the BSL
	// ROM — the pages where a store the checker leaves unchecked is a
	// device-handler call (see Write16).
	devW PageSet

	// Execute-certificate state (see FetchWords). certLo/certHi is the span
	// the checker last certified execute-allowed end to end, certGen the
	// checker generation it was issued at. certEC is the checker's
	// ExecCertifier view, derived once in SetChecker so the fetch path never
	// re-examines the checker's identity. A write into watched code empties
	// the span (content invalidation); the next plan change (generation
	// bump) re-certifies.
	certLo, certHi uint32
	certGen        uint64
	certEC         ExecCertifier
	// certGenRef, when the certifier exposes it, is the address of the
	// certifier's execute generation: the steady-state validity probe reads
	// it directly instead of calling ExecGen through the interface, and it
	// stays put across plan changes that leave the execute runs alone.
	certGenRef *uint64

	// Data-access certificate state (see Read16 and Write16). dataEC is the
	// checker's data-certifier view and dataGenRef the address of its data
	// generation, both derived in SetChecker. fastR and fastW are the pages
	// on which a word read or write may skip the checker: the certifier's
	// DataPages minus device pages, and for writes also minus watched text
	// and the BSL ROM. They hold for data generation dataGen and are
	// refreshed lazily when it moves; Map, WatchCode and SetChecker
	// invalidate them.
	dataEC       dataCertifier
	dataGenRef   *uint64
	dataGen      uint64
	fastR, fastW PageSet
	// slowWrites counts every write that did not take the data fast path —
	// the only writes that can reach watched text, a device or the MPU. The
	// block JIT skips its post-store re-probe while it is unchanged.
	slowWrites uint64

	// checker, if non-nil, vets every data access and instruction fetch.
	// It is set through SetChecker, which derives the certificate view.
	checker Checker
	// OnAccess, if non-nil, observes every successful access (profiling).
	OnAccess func(a Access)

	// WaitStates is charged by the CPU per FRAM access when the clock
	// outruns the FRAM controller; kept on the bus because it is a
	// property of the memory technology, not of the CPU core.
	WaitStates int

	// stats
	reads, writes, fetches uint64
}

// InitFlat makes the zero bus b a flat bus owning a private 64 KiB slab
// holding a copy of img, or erased memory (every byte 0xFF) when img is nil,
// with no devices, checker or watches. Every page is marked owned: the
// flat backing NewBus and NewBusFrom produce, and the oracle the COW backing
// is tested against.
func (b *Bus) InitFlat(img *BusImage) {
	slab := new(BusImage)
	if img != nil {
		*slab = *img
	} else {
		// Unmapped memory reads as 0xFF (erased FRAM convention). Doubling
		// copies fill the 64 KiB in 16 memmoves instead of 64 Ki byte
		// stores.
		slab[0] = 0xFF
		for i := 1; i < len(slab); i *= 2 {
			copy(slab[i:], slab[:i])
		}
	}
	b.mem = new([numPages]*dataPage)
	b.ownTable = true
	for p := 0; p < numPages; p++ {
		b.mem[p] = (*dataPage)(slab[p<<pageShift : (p+1)<<pageShift])
	}
	for i := range b.priv {
		b.priv[i] = ^uint64(0)
	}
	b.layout, b.watch = noDevices, noCode
}

// NewBus returns a bus with the FR5969 region map and no devices.
func NewBus() *Bus {
	b := new(Bus)
	b.InitFlat(nil)
	return b
}

// BusImage is a full snapshot of a bus's 64 KiB memory: the boot-template
// payload. A template holder captures a freshly loaded bus once with
// SnapshotData and clones any number of independent buses from it with
// NewBusFrom — one memmove per device instead of an erase pass plus a
// per-segment firmware load.
type BusImage [1 << 16]byte

// SnapshotData copies the bus's memory into dst. Device registers are not
// captured (devices never back their state with bus memory), so a snapshot
// taken after a loader pass is exactly the byte state a fresh NewBus +
// LoadInto sequence produces.
func (b *Bus) SnapshotData(dst *BusImage) {
	for p := 0; p < numPages; p++ {
		copy(dst[p<<pageShift:(p+1)<<pageShift], b.mem[p][:])
	}
}

// NewBusFrom returns a bus whose memory is a private copy of img, with no
// devices, checker or watches — byte-for-byte the machine NewBus plus the
// template's loader history would have produced, at memmove cost. It is the
// flat-memory oracle the `-nocow` escape hatch falls back to.
func NewBusFrom(img *BusImage) *Bus {
	b := new(Bus)
	b.InitFlat(img)
	return b
}

// Template is an immutable 64 KiB memory image prepared for copy-on-write
// sharing: the snapshot bytes plus the canonical page-pointer table every COW
// bus starts from. Build one with NewTemplate and keep it for as long as any
// bus boots from it; it is safe to share across goroutines.
type Template struct {
	img   *BusImage
	table [numPages]*dataPage
}

// NewTemplate prepares img for COW sharing. img must stay immutable while
// any bus created over the template is alive.
func NewTemplate(img *BusImage) *Template {
	t := &Template{img: img}
	for p := 0; p < numPages; p++ {
		t.table[p] = (*dataPage)(img[p<<pageShift : (p+1)<<pageShift])
	}
	return t
}

// Image returns the template's underlying snapshot (for flat-oracle boots).
func (t *Template) Image() *BusImage { return t.img }

// Boot makes the zero bus b hold the template's bytes for engine e: a flat
// clone (InitFlat) under e.NoCOW, else a COW view (InitCOW) drawing pages
// from arena.
func (t *Template) Boot(b *Bus, arena *PageArena, e engine.Engine) {
	if e.NoCOW {
		b.InitFlat(t.img)
		return
	}
	b.InitCOW(t, arena)
}

// NewBusCOW returns a bus whose memory is a page-granular copy-on-write view
// over the template: it allocates no data pages at all — it even shares the
// template's page-pointer table until the first fault — every read is served
// from the shared bytes, and the first write to a page faults in a private
// 256-byte copy (drawn from arena when non-nil, else freshly allocated).
// Observably identical to NewBusFrom(t.Image()) — same bytes, same checks,
// same stats — at O(dirty pages) memory cost instead of 64 KiB.
func NewBusCOW(t *Template, arena *PageArena) *Bus {
	b := new(Bus)
	b.InitCOW(t, arena)
	return b
}

// InitCOW makes the zero bus b a copy-on-write view over t, as NewBusCOW
// does, without allocating.
func (b *Bus) InitCOW(t *Template, arena *PageArena) {
	b.tmpl, b.arena, b.mem = t, arena, &t.table
	b.layout, b.watch = noDevices, noCode
}

// writablePage returns a page the bus may write in place, faulting in a
// private copy on the first write to a template-shared page. Every write
// path — checked, poke, loader — funnels through here.
func (b *Bus) writablePage(addr uint16) *dataPage {
	p := addr >> pageShift
	if b.priv[p>>6]&(1<<(p&63)) == 0 {
		return b.faultIn(p)
	}
	return b.mem[p]
}

// faultIn replaces shared page p with a private copy of its current (template)
// contents. The copy fully overwrites the incoming page, so arena-recycled
// pages can never leak a prior device's bytes. The very first fault also
// privatizes the page-pointer table the bus was sharing with its template,
// drawing it from the arena when one is parked there: the copy overwrites
// all its slots, so a table another template's bus released is as good as
// a fresh one.
func (b *Bus) faultIn(p uint16) *dataPage {
	if !b.ownTable {
		var nt *[numPages]*dataPage
		if b.arena != nil {
			nt = b.arena.getTable()
		}
		if nt == nil {
			nt = new([numPages]*dataPage)
		}
		*nt = *b.mem
		b.mem = nt
		b.ownTable = true
	}
	var pg *dataPage
	if b.arena != nil {
		pg = b.arena.get()
	}
	if pg == nil {
		pg = new(dataPage)
	}
	*pg = *b.mem[p]
	b.mem[p] = pg
	b.priv[p>>6] |= 1 << (p & 63)
	b.dirtied++
	mPagesDirtied.Inc()
	return pg
}

// DirtyPages returns how many private data pages back this bus: the pages a
// COW bus has faulted in, or all of them for a flat bus. A device's idle
// data footprint is DirtyPages() * PageSize bytes.
func (b *Bus) DirtyPages() int {
	if b.tmpl == nil {
		return numPages
	}
	return b.dirtied
}

// ReleasePages detaches a COW bus from its private pages and page table,
// handing them to the arena (when one is attached) for later devices to
// reuse, and reverts the bus to a clean view of its template: it aliases the
// template's table again. Finished fleet devices call it so a million-device
// run cycles a bounded working set. The caller must treat the bus as retired
// afterwards. Flat buses ignore the call.
func (b *Bus) ReleasePages() {
	if b.tmpl == nil {
		return
	}
	for w, bw := range b.priv {
		for bw != 0 {
			p := uint16(w*64 + bits.TrailingZeros64(bw))
			bw &= bw - 1
			if b.arena != nil {
				b.arena.put(b.mem[p])
			}
		}
		b.priv[w] = 0
	}
	b.dirtied = 0
	if b.ownTable {
		if b.arena != nil {
			b.arena.putTable(b.mem)
		}
		b.mem, b.ownTable = &b.tmpl.table, false
	}
}

// PrivatePages visits the bus's private pages in ascending page order: the
// pages a COW bus has faulted in, or all 256 for a flat bus. Every other
// page of a COW bus aliases its template, so a template-relative diff only
// needs these. data aliases the live page and must not be retained or
// written. Use it as a range-over-func iterator.
func (b *Bus) PrivatePages(yield func(page int, data []byte) bool) {
	for w, bw := range b.priv {
		for bw != 0 {
			p := w*64 + bits.TrailingZeros64(bw)
			bw &= bw - 1
			if !yield(p, b.mem[p][:]) {
				return
			}
		}
	}
}

// RevertVolatile models power loss on the bus: every private page that does
// not survive it (PagePersistent false) goes back to img, the image the bus
// was booted from. A COW bus hands those pages to its arena and aliases its
// template again; a flat bus copies img's bytes in. The code watch fires for
// every reverted page whose bytes change, exactly as a reload of img would.
func (b *Bus) RevertVolatile(img *BusImage) {
	b.slowWrites++
	for w, bw := range b.priv {
		for bw != 0 {
			p := uint16(w*64 + bits.TrailingZeros64(bw))
			bw &= bw - 1
			if PagePersistent(int(p)) {
				continue
			}
			lo := p << pageShift
			orig := (*dataPage)(img[lo : lo+PageSize])
			pg := b.mem[p]
			if *pg != *orig {
				b.touchCode(lo, lo+pageMask)
			}
			if b.tmpl == nil {
				*pg = *orig
				continue
			}
			b.mem[p] = b.tmpl.table[p]
			b.priv[w] &^= 1 << (p & 63)
			b.dirtied--
			if b.arena != nil {
				b.arena.put(pg)
			}
		}
	}
}

// WatchCode registers the executable text backing a predecode cache and
// the writer told when any write — checked, poke or loader — lands inside
// one of its ranges. The writer receives the overlapping byte span [lo, hi]
// (inclusive), clamped per range. The bus references w, which must stay
// immutable. Passing a nil w or cw clears the watch. At most one watch is
// active; the CPU owns it (see cpu.UseProgram).
func (b *Bus) WatchCode(w *CodeWatch, cw CodeWriter) {
	// A new watch means a new (or detached) predecode cache: restart
	// certification from scratch so the next certified access re-validates.
	b.DropExecCert()
	b.certGen = ^uint64(0)
	b.dataGen = ^uint64(0)
	b.watch, b.onCodeWrite = noCode, nil
	if w != nil && cw != nil {
		b.watch, b.onCodeWrite = w, cw
	}
	for i := range b.devW {
		b.devW[i] = b.layout.set[i] &^ b.watch.pages[i] &^ bslPages[i]
	}
}

// touchCode reports a write of the byte span [lo, hi] to the code watch.
// The page bitmap makes the miss path (all data traffic, spanning one or
// two pages) a couple of loads; hits clamp the span to each watched range
// before invoking the callback. Multi-page spans (LoadBytes) must test
// every covered page — the endpoints alone can both miss while the middle
// overwrites watched text.
func (b *Bus) touchCode(lo, hi uint16) {
	if b.onCodeWrite == nil {
		return
	}
	watched := false
	for p := int(lo >> pageShift); p <= int(hi>>pageShift); p++ {
		if b.watch.pages.Has(p) {
			watched = true
			break
		}
	}
	if !watched {
		return
	}
	for _, r := range b.watch.ranges {
		if r.Hi <= r.Lo || hi < r.Lo || lo >= r.Hi {
			continue
		}
		// Content invalidation: a write into watched text also voids the
		// execute certificate until the next plan change re-validates, so
		// self-modifying and adversarial pokes always fall back to the
		// per-word oracle alongside the live decoder.
		b.DropExecCert()
		mWatchInval.Inc()
		clo, chi := lo, hi
		if clo < r.Lo {
			clo = r.Lo
		}
		if chi > r.Hi-1 {
			chi = r.Hi - 1
		}
		b.onCodeWrite.CodeWritten(clo, chi)
	}
}

// InRegion reports whether addr lies in [lo, hi].
func InRegion(addr, lo, hi uint16) bool { return addr >= lo && addr <= hi }

// align drops bit 0, mirroring the MSP430's silent word alignment.
func align(addr uint16) uint16 { return addr &^ 1 }

// rawRead16 reads a word without checks or hooks. Reads never fault a COW
// page in — shared template pages serve them directly.
func (b *Bus) rawRead16(addr uint16) uint16 {
	addr = align(addr)
	if d := b.deviceAt(addr); d != nil {
		return d.ReadWord(addr)
	}
	pg := b.mem[addr>>pageShift]
	off := addr & pageMask
	return uint16(pg[off]) | uint16(pg[off+1])<<8
}

// rawWrite16 writes a word without checks or hooks (but it does feed the
// code watch: predecoded text must never go stale, whoever writes it).
func (b *Bus) rawWrite16(addr, v uint16) {
	addr = align(addr)
	b.slowWrites++
	b.touchCode(addr, addr+1)
	b.storeWord(addr, v)
}

// storeWord stores v at the word-aligned addr: to the device mapped there,
// else to memory.
func (b *Bus) storeWord(addr, v uint16) {
	if d := b.deviceAt(addr); d != nil {
		d.WriteWord(addr, v)
		return
	}
	pg := b.writablePage(addr)
	off := addr & pageMask
	pg[off] = byte(v)
	pg[off+1] = byte(v >> 8)
}

// SetChecker installs (or clears, with nil) the access checker. The
// certifier views — ExecCertifier and data-certifier interfaces,
// generation-counter address — are derived here, once per install, so the
// fast paths never pay an interface identity probe. Any previously
// certified span or page set is dropped.
func (b *Bus) SetChecker(c Checker) {
	b.checker = c
	b.certEC, _ = c.(ExecCertifier)
	b.dataEC, _ = c.(dataCertifier)
	b.certGenRef = nil
	if gr, ok := c.(execGenRef); ok {
		b.certGenRef = gr.ExecGenRef()
	}
	b.dataGenRef = nil
	if b.dataEC != nil {
		b.dataGenRef = b.dataEC.DataGenRef()
	}
	b.certGen = ^uint64(0)
	b.dataGen = ^uint64(0)
	b.fastR, b.fastW = PageSet{}, PageSet{}
	b.DropExecCert()
}

// Checker returns the installed access checker, if any.
func (b *Bus) Checker() Checker { return b.checker }

// check runs the configured checker.
func (b *Bus) check(a Access) *Violation {
	if b.checker == nil {
		return nil
	}
	return b.checker.CheckAccess(a)
}

// observe runs the profiling hook and updates counters.
func (b *Bus) observe(a Access) {
	switch a.Kind {
	case Read:
		b.reads++
	case Write:
		b.writes++
	case Execute:
		b.fetches++
	}
	if b.OnAccess != nil {
		b.OnAccess(a)
	}
}

// dataFast reports whether a word access to addr may skip the checker:
// addr's page is on mask (fastR or fastW), the mask is current for the
// checker's generation, and no profiling hook observes accesses. It is
// small enough to inline into the access paths; recertify handles every
// miss.
func (b *Bus) dataFast(mask *PageSet, addr uint16) bool {
	return mask.Has(int(addr>>pageShift)) && *b.dataGenRef == b.dataGen && b.OnAccess == nil
}

// recertify is dataFast's miss path: after a generation change it re-derives
// fastR and fastW and tests addr's page again. Device pages are never on the
// masks, so device traffic — gate code's MPU register writes above all —
// never refreshes them for the mid-switch configuration each register write
// leaves behind (stores take deviceCertified instead). The masks
// stay empty while no data certifier is installed (see SetChecker), so
// dataFast never reads a missing generation counter.
func (b *Bus) recertify(mask *PageSet, addr uint16) bool {
	p := int(addr >> pageShift)
	devs := &b.layout.set
	if b.dataEC == nil || b.OnAccess != nil || *b.dataGenRef == b.dataGen || devs.Has(p) {
		return false
	}
	r, w := b.dataEC.DataPages()
	for i := range r {
		b.fastR[i] = r[i] &^ devs[i]
		b.fastW[i] = w[i] &^ devs[i] &^ b.watch.pages[i] &^ bslPages[i]
	}
	b.dataGen = *b.dataGenRef
	return mask.Has(p)
}

// deviceCertified reports whether a word store to addr may skip the checker
// because addr's page is a device page the certifier never checks (see
// dataCertifier.Unchecked) — on the FR5969 every peripheral page, so gate
// code's MPU register writes and the kernel's port writes. The page holds no
// watched text and is not the BSL ROM (devW), so the store is the device
// call plus the counters, whatever the configuration generation.
func (b *Bus) deviceCertified(addr uint16) bool {
	p := int(addr >> pageShift)
	return b.devW.Has(p) && b.dataEC != nil && b.OnAccess == nil && b.dataEC.Unchecked().Has(p)
}

// Read16 performs a checked word read. On a page the checker has certified
// readable (see dataFast) the read is a direct page load plus the read
// counter — observably identical to read16Oracle, which serves every other
// read and is the enforcement oracle the fast path is tested against.
func (b *Bus) Read16(addr uint16) (uint16, *Violation) {
	addr = align(addr)
	if b.dataFast(&b.fastR, addr) || b.recertify(&b.fastR, addr) {
		b.reads++
		pg := b.mem[addr>>pageShift]
		off := addr & pageMask
		return uint16(pg[off]) | uint16(pg[off+1])<<8, nil
	}
	return b.read16Oracle(addr)
}

// read16Oracle is the per-access checked word read.
func (b *Bus) read16Oracle(addr uint16) (uint16, *Violation) {
	a := Access{Addr: align(addr), Kind: Read}
	if v := b.check(a); v != nil {
		return 0, v
	}
	a.Value = b.rawRead16(addr)
	b.observe(a)
	return a.Value, nil
}

// Read8 performs a checked byte read.
func (b *Bus) Read8(addr uint16) (uint8, *Violation) {
	a := Access{Addr: addr, Kind: Read, Byte: true}
	if v := b.check(a); v != nil {
		return 0, v
	}
	var v uint8
	if d := b.deviceAt(align(addr)); d != nil {
		w := d.ReadWord(align(addr))
		if addr&1 == 1 {
			v = uint8(w >> 8)
		} else {
			v = uint8(w)
		}
	} else {
		v = b.mem[addr>>pageShift][addr&pageMask]
	}
	a.Value = uint16(v)
	b.observe(a)
	return v, nil
}

// Write16 performs a checked word write. On a page the checker has
// certified writable, with no device, watched text or ROM on it, the write
// is a direct page store (faulting a COW page in as usual) plus the write
// counter. On a device page the checker never checks, it is the device call
// (or page store) plus the counters. Every other write takes write16Oracle,
// the enforcement oracle.
func (b *Bus) Write16(addr, val uint16) *Violation {
	addr = align(addr)
	if b.dataFast(&b.fastW, addr) {
		b.storePage(addr, val)
		return nil
	}
	if b.deviceCertified(addr) {
		b.slowWrites++
		b.storeWord(addr, val)
		b.writes++
		return nil
	}
	if b.recertify(&b.fastW, addr) {
		b.storePage(addr, val)
		return nil
	}
	return b.write16Oracle(addr, val)
}

// storePage is the certified store to plain memory: the page store
// (faulting a COW page in as usual) plus the write counter.
func (b *Bus) storePage(addr, val uint16) {
	b.writes++
	pg := b.writablePage(addr)
	off := addr & pageMask
	pg[off] = byte(val)
	pg[off+1] = byte(val >> 8)
}

// write16Oracle is the per-access checked word write.
func (b *Bus) write16Oracle(addr, val uint16) *Violation {
	a := Access{Addr: align(addr), Kind: Write, Value: val}
	if v := b.check(a); v != nil {
		return v
	}
	if iv := b.immutable(align(addr)); iv != nil {
		return iv
	}
	b.rawWrite16(addr, val)
	b.observe(a)
	return nil
}

// Write8 performs a checked byte write.
func (b *Bus) Write8(addr uint16, val uint8) *Violation {
	a := Access{Addr: addr, Kind: Write, Byte: true, Value: uint16(val)}
	if v := b.check(a); v != nil {
		return v
	}
	if iv := b.immutable(addr); iv != nil {
		return iv
	}
	b.slowWrites++
	b.touchCode(addr, addr)
	if d := b.deviceAt(align(addr)); d != nil {
		w := d.ReadWord(align(addr))
		if addr&1 == 1 {
			w = w&0x00FF | uint16(val)<<8
		} else {
			w = w&0xFF00 | uint16(val)
		}
		d.WriteWord(align(addr), w)
	} else {
		b.writablePage(addr)[addr&pageMask] = val
	}
	b.observe(a)
	return nil
}

// immutable rejects writes to the bootstrap-loader ROM.
func (b *Bus) immutable(addr uint16) *Violation {
	if InRegion(addr, BSLLo, BSLHi) {
		return &Violation{
			Access: Access{Addr: addr, Kind: Write},
			Rule:   "bootstrap loader ROM is read-only",
		}
	}
	return nil
}

// execCertified reports whether the instruction fetch [addr, addr+size) is
// covered by a valid execute certificate, re-validating lazily: on an
// execute-generation change (an MPU plan change that alters the execute
// runs — gate code rewriting the registers, or the kernel's Go-side
// Configure) the certifier is asked once for the maximal allowed span
// around addr. Otherwise the per-fetch cost is two compares and a
// generation load (SetChecker pre-derived the certifier view, so no
// identity probe or interface call remains here).
func (b *Bus) execCertified(addr, size uint16) bool {
	ec := b.certEC
	if ec == nil {
		// With no checker at all every fetch is allowed; any other checker
		// kind cannot certify and always takes the per-word oracle.
		return b.checker == nil
	}
	var g uint64
	if r := b.certGenRef; r != nil {
		g = *r
	} else {
		g = ec.ExecGen()
	}
	if g != b.certGen {
		b.certGen = g
		lo, hi := ec.ExecSpan(addr)
		b.certLo, b.certHi = uint32(lo), hi
	}
	a := uint32(addr)
	return a >= b.certLo && a+uint32(size) <= b.certHi
}

// ExecCertifiedSpan reports whether a compiled block's whole fetch span
// [addr, addr+size) is covered by a valid execute certificate AND the
// certificate fast path is actually in force — no profiling hook observing
// accesses. It is the entry (and post-write re-probe) gate for the block
// JIT: when it returns true, every per-instruction FetchWords inside the
// span would take the counter-only fast path, so a block executor may batch
// that accounting; when false the block deopts and the interpreter's
// per-word oracle does whatever it would have done anyway.
func (b *Bus) ExecCertifiedSpan(addr, size uint16) bool {
	return b.OnAccess == nil && b.execCertified(addr, size)
}

// AddFetchWords advances the fetch counter by n words without checks or
// profiling — the block JIT's accounting primitive, valid only under a span
// certificate (see ExecCertifiedSpan), where it is observably identical to
// the per-instruction FetchWords fast path.
func (b *Bus) AddFetchWords(n uint64) { b.fetches += n }

// SlowWrites counts the writes that bypassed the data fast path (checked
// writes the certificate did not cover, byte writes, pokes, loads, power
// reverts) plus execute-certificate drops. Only such an event can touch
// watched text, a device or the checker's configuration, so while the count
// is unchanged an execute certificate and the code watch's dirty set are
// exactly as they were.
func (b *Bus) SlowWrites() uint64 { return b.slowWrites }

// DropExecCert empties the certified execute span without touching the
// generation, forcing per-word checks until the next plan change
// re-certifies. The code watch calls it on any write into watched text;
// exported for tests and tooling.
func (b *Bus) DropExecCert() {
	b.slowWrites++
	if b.certHi > b.certLo {
		mCertDrops.Inc()
	}
	b.certLo, b.certHi = 1, 0
}

// ExecCert returns the current certified execute span and whether it is
// non-empty — introspection for the certificate-invalidation tests.
func (b *Bus) ExecCert() (lo, hi uint32, ok bool) {
	return b.certLo, b.certHi, b.certHi > b.certLo
}

// Fetch16 performs a checked instruction-word fetch.
func (b *Bus) Fetch16(addr uint16) (uint16, *Violation) {
	a := Access{Addr: align(addr), Kind: Execute}
	if v := b.check(a); v != nil {
		return 0, v
	}
	a.Value = b.rawRead16(addr)
	b.observe(a)
	return a.Value, nil
}

// FetchWords performs the checked instruction fetch for one predecoded
// instruction of `size` bytes starting at addr: each word is execute-checked
// and counted exactly as a Fetch16 would, stopping at the first violation,
// but the memory re-read (the bits are already decoded) is skipped unless a
// profiling hook needs the fetched value.
//
// Inside a valid execute certificate (a span the Checker has proven
// execute-allowed end to end, see ExecCertifier) the per-word checks are
// skipped entirely: no access in the span can be denied, so only the fetch
// counter advances — observably identical to the per-word path, which is
// kept below as the enforcement oracle and still serves profiled runs
// (OnAccess needs per-word values), uncertifiable checkers, dropped
// certificates and spans the certifier refuses.
func (b *Bus) FetchWords(addr, size uint16) *Violation {
	if b.OnAccess == nil && b.execCertified(addr, size) {
		b.fetches += uint64(size >> 1)
		return nil
	}
	return b.fetchWordsOracle(addr, size)
}

// fetchWordsOracle is the always-correct per-word fetch path the
// certificate fast path is tested against.
func (b *Bus) fetchWordsOracle(addr, size uint16) *Violation {
	for off := uint16(0); off < size; off += 2 {
		a := Access{Addr: addr + off, Kind: Execute}
		if v := b.check(a); v != nil {
			return v
		}
		if b.OnAccess != nil {
			a.Value = b.rawRead16(a.Addr)
		}
		b.observe(a)
	}
	return nil
}

// ReadCodeWord implements isa.WordReader for side-effect-free decoding.
func (b *Bus) ReadCodeWord(addr uint16) uint16 { return b.rawRead16(addr) }

// Peek16 reads a word without checks or profiling (debugger/loader use).
func (b *Bus) Peek16(addr uint16) uint16 { return b.rawRead16(addr) }

// Peek8 reads a byte without checks or profiling.
func (b *Bus) Peek8(addr uint16) uint8 {
	if d := b.deviceAt(align(addr)); d != nil {
		w := d.ReadWord(align(addr))
		if addr&1 == 1 {
			return uint8(w >> 8)
		}
		return uint8(w)
	}
	return b.mem[addr>>pageShift][addr&pageMask]
}

// Poke16 writes a word without checks or profiling (loader use).
func (b *Bus) Poke16(addr, v uint16) { b.rawWrite16(addr, v) }

// Poke8 writes a byte without checks or profiling (loader use).
func (b *Bus) Poke8(addr uint16, v uint8) {
	b.slowWrites++
	b.touchCode(addr, addr)
	if d := b.deviceAt(align(addr)); d != nil {
		w := d.ReadWord(align(addr))
		if addr&1 == 1 {
			w = w&0x00FF | uint16(v)<<8
		} else {
			w = w&0xFF00 | uint16(v)
		}
		d.WriteWord(align(addr), w)
		return
	}
	b.writablePage(addr)[addr&pageMask] = v
}

// LoadBytes copies raw bytes into memory at addr without checks (loader use).
// A load overlapping a watched code range invalidates the covered cache
// entries, so image reloads over a live predecode cache stay correct.
func (b *Bus) LoadBytes(addr uint16, p []byte) {
	if len(p) == 0 {
		return
	}
	b.slowWrites++
	last := addr + uint16(len(p)-1)
	if last < addr { // wrapped past 0xFFFF
		b.touchCode(addr, 0xFFFF)
		b.touchCode(0, last)
	} else {
		b.touchCode(addr, last)
	}
	a := addr
	remaining := p
	for len(remaining) > 0 {
		pg := b.writablePage(a)
		n := copy(pg[a&pageMask:], remaining)
		remaining = remaining[n:]
		a += uint16(n) // wraps past 0xFFFF like the old byte loop did
	}
}

// Stats returns the cumulative numbers of data reads, data writes and
// instruction fetches since creation.
func (b *Bus) Stats() (reads, writes, fetches uint64) {
	return b.reads, b.writes, b.fetches
}

// PagePersistent reports whether a bus page holds state that survives power
// loss on the modeled MSP430FR5969: information FRAM, main FRAM, and the
// vector table are ferroelectric and retain their contents through a
// brownout; SRAM, peripheral registers, and the BSL/reserved windows do not.
// A page is persistent only if every address in it is FRAM-backed — pages
// straddling a volatile region are conservatively treated as volatile.
func PagePersistent(page int) bool {
	if page < 0 || page >= (1<<16)/PageSize {
		return false
	}
	lo := uint16(page * PageSize)
	hi := lo + PageSize - 1
	if InRegion(lo, InfoLo, InfoHi) && InRegion(hi, InfoLo, InfoHi) {
		return true
	}
	return lo >= FRAMLo // main FRAM runs from FRAMLo through the vectors at 0xFFFF
}

// RegionName names the architectural region containing addr.
func RegionName(addr uint16) string {
	switch {
	case InRegion(addr, PeriphLo, PeriphHi):
		return "peripheral"
	case InRegion(addr, BSLLo, BSLHi):
		return "bsl"
	case InRegion(addr, InfoLo, InfoHi):
		return "infomem"
	case InRegion(addr, SRAMLo, SRAMHi):
		return "sram"
	case InRegion(addr, FRAMLo, FRAMHi):
		return "fram"
	case addr >= VectLo:
		return "vectors"
	}
	return "reserved"
}
