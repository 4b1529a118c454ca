// Package mpu models the memory protection unit of the MSP430FR59xx FRAM
// family — deliberately including every shortcoming the paper's Section 2
// enumerates, because those shortcomings are what force the paper's hybrid
// MPU+compiler isolation design:
//
//  1. only three configurable segments over main FRAM (plus a fixed InfoMem
//     segment), so four desired regions per app cannot be expressed;
//  2. no coverage of peripheral registers, SRAM, the bootstrap loader or the
//     interrupt vector table — a stray pointer below the app escapes the MPU;
//  3. coarse ("arcane") boundary rules: segment borders snap down to 1 KiB
//     blocks, and only the two inner boundaries are adjustable.
//
// The unit is a memory-mapped peripheral: gate code reconfigures it on
// context switches with ordinary MOV instructions, so reconfiguration cost is
// measured in simulated cycles rather than asserted.
package mpu

import (
	"fmt"

	"amuletiso/internal/engine"
	"amuletiso/internal/mem"
)

// Register addresses (word-aligned, inside the peripheral region).
// Deviation from the TI part: the real MPUSEGBx registers hold addr>>4;
// ours hold the byte address directly (still masked down to the 1 KiB
// boundary grain). This keeps gate code able to load boundaries from
// link-time symbols without shift helpers, and changes nothing about the
// protection semantics the paper depends on.
const (
	RegCTL0  uint16 = 0x05A0 // password + enable/lock control
	RegCTL1  uint16 = 0x05A2 // violation flags (write 0 bits to clear)
	RegSEGB2 uint16 = 0x05A4 // boundary between segments 2 and 3
	RegSEGB1 uint16 = 0x05A6 // boundary between segments 1 and 2
	RegSAM   uint16 = 0x05A8 // per-segment access rights

	RegLo = RegCTL0
	RegHi = RegSAM + 1
)

// MPUCTL0 bits. Writes must carry the password in the high byte or they are
// ignored and latch a password violation (a PUC on real silicon).
const (
	CtlEnable uint16 = 1 << 0 // MPUENA
	CtlLock   uint16 = 1 << 1 // MPULOCK: boundaries frozen until reset
	Password  uint16 = 0xA500
	pwMask    uint16 = 0xFF00
)

// MPUCTL1 violation flag bits.
const (
	FlagSeg1 uint16 = 1 << 0 // violation in main segment 1
	FlagSeg2 uint16 = 1 << 1 // violation in main segment 2
	FlagSeg3 uint16 = 1 << 2 // violation in main segment 3
	FlagSegI uint16 = 1 << 3 // violation in InfoMem segment
	FlagPW   uint16 = 1 << 4 // password violation on register write
)

// MPUSAM access-right bits: {R,W,X} per segment, 4 bits apart, matching the
// real register layout closely enough for gate code to be written naturally.
const (
	Seg1R uint16 = 1 << 0
	Seg1W uint16 = 1 << 1
	Seg1X uint16 = 1 << 2
	Seg2R uint16 = 1 << 4
	Seg2W uint16 = 1 << 5
	Seg2X uint16 = 1 << 6
	Seg3R uint16 = 1 << 8
	Seg3W uint16 = 1 << 9
	Seg3X uint16 = 1 << 10
	SegIR uint16 = 1 << 12
	SegIW uint16 = 1 << 13
	SegIX uint16 = 1 << 14
)

// RWX constructs MPUSAM bits for one segment given its index (1,2,3) from
// read/write/execute permissions.
func RWX(seg int, r, w, x bool) uint16 {
	var v uint16
	if r {
		v |= 1
	}
	if w {
		v |= 2
	}
	if x {
		v |= 4
	}
	switch seg {
	case 1:
		return v
	case 2:
		return v << 4
	case 3:
		return v << 8
	case 0:
		return v << 12
	}
	panic(fmt.Sprintf("mpu: bad segment %d", seg))
}

// Granularity is the boundary alignment the hardware supports. Boundary
// writes snap down to this grain — one of the paper's "arcane protection
// boundary rules".
const Granularity uint16 = 0x0400 // 1 KiB

// Capability selects how able the modeled hardware is. The paper's §5
// envisions "more advanced MPUs" with four or more regions that can protect
// all of memory; CapabilityAdvanced models that hypothetical part for the
// ablation study in EXPERIMENTS.md.
type Capability int

const (
	// CapabilityFR5969 is the real part: 3 movable segments over main FRAM
	// only, 1 KiB granularity.
	CapabilityFR5969 Capability = iota
	// CapabilityAdvanced is the paper's wished-for part: the three segments
	// also cover SRAM and peripherals below FRAM (a fourth implicit region
	// "everything below segment 1" with no access), making compiler
	// lower-bound checks redundant.
	CapabilityAdvanced
)

// Unit is the MPU. It implements mem.Device (register file) and mem.Checker
// (access filter). Create one with New; the zero value has no plan record.
type Unit struct {
	// Cap is part of the configuration: set it before programming the unit
	// (Configure, SetState or the register protocol), since certificates
	// are re-derived only when the configuration generation advances.
	Cap Capability

	ctl0  uint16
	ctl1  uint16
	segB1 uint16 // boundary address, masked to Granularity
	segB2 uint16
	sam   uint16

	// gen counts configuration changes (boundaries, rights, enable state) —
	// the generation the bus's data certificates are pinned to. xgen counts
	// only the changes that alter the execute runs, and pins the bus's
	// execute certificate: most gate writes move data rights alone, so the
	// re-probe after them is a load and a compare. Violation latching bumps
	// neither: latched flags never change what an access is allowed to do.
	gen, xgen uint64

	// cur is the plan record for the current configuration, resolved at
	// every configuration change through the previous record's successor
	// edges (see plan.successor), so every certificate query is a load.
	cur *plan

	// OnViolation, if set, is invoked after a violation flag latches.
	OnViolation func(v *mem.Violation)

	// OnConfig, if set, is invoked after every configuration-generation bump
	// (register-protocol writes and Go-side Configure calls alike) — the
	// flight recorder's gate-crossing hook. Observers must not touch the unit.
	OnConfig func()

	violations uint64
}

// New returns a disabled MPU with open access rights.
func New() *Unit {
	u := new(Unit)
	u.Init()
	return u
}

// Init makes the zero Unit u the disabled, open-access MPU New returns,
// without allocating.
func (u *Unit) Init() {
	u.sam, u.cur = 0x7777, openPlan
}

// Install maps u's registers onto bus and makes u its access checker. Under
// e.NoCert the bus sees only CheckAccess, never the certifier interfaces, so
// no certificate forms and every fetch and data access takes the per-word
// oracle path.
func (u *Unit) Install(bus *mem.Bus, e engine.Engine) {
	bus.Map(RegLo, RegHi, u)
	if e.NoCert {
		bus.SetChecker(struct{ mem.Checker }{u})
	} else {
		bus.SetChecker(u)
	}
}

// DeviceName implements mem.Device.
func (u *Unit) DeviceName() string { return "mpu" }

// bump advances the configuration generation, resolves the new
// configuration's plan record — advancing the execute generation only if
// its execute runs differ from the previous record's — and notifies any
// observer.
func (u *Unit) bump() {
	u.gen++
	p := u.resolve()
	if p.runs != u.cur.runs {
		u.xgen++
	}
	u.cur = p
	if u.OnConfig != nil {
		u.OnConfig()
	}
}

// ReadWord implements mem.Device.
func (u *Unit) ReadWord(addr uint16) uint16 {
	switch addr {
	case RegCTL0:
		return u.ctl0 &^ pwMask // password reads back as zero
	case RegCTL1:
		return u.ctl1
	case RegSEGB2:
		return u.segB2
	case RegSEGB1:
		return u.segB1
	case RegSAM:
		return u.sam
	}
	return 0
}

// WriteWord implements mem.Device. MPUCTL0 demands the password; the other
// registers demand the unit be unlocked.
func (u *Unit) WriteWord(addr uint16, v uint16) {
	if addr == RegCTL0 {
		if v&pwMask != Password {
			u.ctl1 |= FlagPW
			u.violations++
			return
		}
		u.ctl0 = v & (CtlEnable | CtlLock)
		u.bump()
		return
	}
	if u.ctl0&CtlLock != 0 {
		u.ctl1 |= FlagPW
		u.violations++
		return
	}
	switch addr {
	case RegCTL1:
		u.ctl1 &= v // write-0-to-clear: flags only, no permission change
	case RegSEGB2:
		u.segB2 = v &^ (Granularity - 1)
		u.bump()
	case RegSEGB1:
		u.segB1 = v &^ (Granularity - 1)
		u.bump()
	case RegSAM:
		u.sam = v
		u.bump()
	}
}

// Enabled reports whether protection is active.
func (u *Unit) Enabled() bool { return u.ctl0&CtlEnable != 0 }

// Boundaries returns the two segment boundaries as absolute addresses.
func (u *Unit) Boundaries() (b1, b2 uint16) { return u.segB1, u.segB2 }

// Flags returns the latched violation flags.
func (u *Unit) Flags() uint16 { return u.ctl1 }

// Violations returns the cumulative violation count.
func (u *Unit) Violations() uint64 { return u.violations }

// Configure is a loader/test convenience that programs the unit directly
// (bypassing the register protocol): boundaries are absolute addresses.
func (u *Unit) Configure(b1, b2, sam uint16, enable bool) {
	u.segB1 = b1 &^ (Granularity - 1)
	u.segB2 = b2 &^ (Granularity - 1)
	u.sam = sam
	if enable {
		u.ctl0 |= CtlEnable
	} else {
		u.ctl0 &^= CtlEnable
	}
	u.bump()
}

// State is a serializable snapshot of the unit's architectural state: the
// register file (including the password-protected control bits an app may
// have latched, like CtlLock), capability, and the cumulative violation
// count. The configuration generation and plan-record caches are deliberately
// excluded — they are caches, rebuilt on demand, and restoring them would
// couple checkpoints to an implementation detail.
type State struct {
	Cap        Capability `json:"cap,omitempty"`
	CTL0       uint16     `json:"ctl0"`
	CTL1       uint16     `json:"ctl1,omitempty"`
	SegB1      uint16     `json:"segB1"`
	SegB2      uint16     `json:"segB2"`
	SAM        uint16     `json:"sam"`
	Violations uint64     `json:"violations,omitempty"`
}

// State captures the unit's architectural state for checkpointing.
func (u *Unit) State() State {
	return State{
		Cap:        u.Cap,
		CTL0:       u.ctl0,
		CTL1:       u.ctl1,
		SegB1:      u.segB1,
		SegB2:      u.segB2,
		SAM:        u.sam,
		Violations: u.violations,
	}
}

// SetState restores a snapshot taken with State. It counts as a
// configuration change (the generation advances), so any execute
// certificate issued before the restore is re-validated against the
// restored plan.
func (u *Unit) SetState(s State) {
	u.Cap = s.Cap
	u.ctl0 = s.CTL0
	u.ctl1 = s.CTL1
	u.segB1 = s.SegB1 &^ (Granularity - 1)
	u.segB2 = s.SegB2 &^ (Granularity - 1)
	u.sam = s.SAM
	u.violations = s.Violations
	u.bump()
}

// segmentOf classifies an address: 0 = InfoMem, 1..3 = main segments,
// -1 = outside MPU coverage.
func (u *Unit) segmentOf(addr uint16) int {
	if mem.InRegion(addr, mem.InfoLo, mem.InfoHi) {
		return 0
	}
	b1, b2 := u.Boundaries()
	switch u.Cap {
	case CapabilityAdvanced:
		// The hypothetical part covers everything below the vector table,
		// except the simulator's own debug port window.
		if addr >= mem.VectLo || mem.InRegion(addr, mem.DebugLo, mem.DebugHi) {
			return -1
		}
		if addr < b1 {
			return 1
		}
		if addr < b2 {
			return 2
		}
		return 3
	default:
		if !mem.InRegion(addr, mem.FRAMLo, mem.FRAMHi) {
			return -1 // SRAM, peripherals, vectors: unprotected (the flaw)
		}
		if addr < b1 {
			return 1
		}
		if addr < b2 {
			return 2
		}
		return 3
	}
}

// segBits extracts the {R,W,X} rights of a segment from MPUSAM.
func (u *Unit) segBits(seg int) uint16 {
	switch seg {
	case 0:
		return u.sam >> 12 & 7
	case 1:
		return u.sam & 7
	case 2:
		return u.sam >> 4 & 7
	case 3:
		return u.sam >> 8 & 7
	}
	return 7
}

var segFlag = [4]uint16{FlagSegI, FlagSeg1, FlagSeg2, FlagSeg3}

// CheckAccess implements mem.Checker. MPU register accesses themselves are
// always allowed (the compiler check, not the MPU, is what protects them —
// exactly the paper's point about unprotected peripheral registers).
func (u *Unit) CheckAccess(a mem.Access) *mem.Violation {
	if !u.Enabled() {
		return nil
	}
	seg := u.segmentOf(a.Addr)
	if seg < 0 {
		return nil
	}
	bits := u.segBits(seg)
	var need uint16
	var what string
	switch a.Kind {
	case mem.Read:
		need, what = 1, "read"
	case mem.Write:
		need, what = 2, "write"
	case mem.Execute:
		need, what = 4, "execute"
	}
	if bits&need != 0 {
		return nil
	}
	u.ctl1 |= segFlag[seg]
	u.violations++
	v := &mem.Violation{
		Access: a,
		Rule: fmt.Sprintf("MPU segment %d (%s) forbids %s (rights=%03b)",
			seg, u.segmentName(seg), what, bits),
	}
	if u.OnViolation != nil {
		u.OnViolation(v)
	}
	return v
}

// allows reports whether an access needing the rights bits `need` (1 read,
// 2 write, 4 execute) at addr would be permitted under the current
// configuration, WITHOUT latching violation flags — the pure query behind
// execute and data certificates. It must agree with CheckAccess on every
// address (mpu tests assert this); CheckAccess stays the enforcement oracle.
func (u *Unit) allows(addr, need uint16) bool {
	if !u.Enabled() {
		return true
	}
	seg := u.segmentOf(addr)
	if seg < 0 {
		return true // outside coverage: the modeled hardware hole
	}
	return u.segBits(seg)&need != 0
}

// ExecGen implements mem.ExecCertifier: the configuration generation an
// execute or data-access certificate is valid for. Every boundary, rights
// or enable change — register-protocol writes from gate code and Go-side
// Configure calls alike — advances it, which is what forces the bus to
// re-validate its certificates at plan changes.
func (u *Unit) ExecGen() uint64 { return u.gen }

// ExecGenRef exposes the execute generation's address, letting the bus read
// execute-certificate validity with a load instead of an interface call on
// every certified fetch. The execute generation advances only when a
// configuration change alters the execute runs (ExecSpan's answers), so a
// certificate survives the data-only register writes of a gate crossing.
// Only the bus (single-threaded with the unit) reads it.
func (u *Unit) ExecGenRef() *uint64 { return &u.xgen }

// DataGenRef exposes the configuration generation's address (the ExecGen
// value): DataPages' answer holds while it is unchanged.
func (u *Unit) DataGenRef() *uint64 { return &u.gen }

// Unchecked returns the pages on which CheckAccess denies nothing under any
// configuration of the unit's capability — the coverage holes of the
// modeled part. Unlike DataPages it does not depend on the generation: the
// bus may store to a device on these pages without consulting the unit.
func (u *Unit) Unchecked() *mem.PageSet {
	if u.Cap == CapabilityAdvanced {
		return &uncheckedPages[CapabilityAdvanced]
	}
	return &uncheckedPages[CapabilityFR5969]
}

// ExecSpan implements mem.ExecCertifier: the maximal span [lo, hi)
// containing addr for which every instruction fetch is allowed under the
// current configuration, or the empty span when addr itself is not
// executable. hi is a uint32 so the span may extend through 0xFFFF
// (hi = 0x10000). The runs come from the configuration's shared plan record.
func (u *Unit) ExecSpan(addr uint16) (uint16, uint32) {
	r := u.plan().runs
	a := uint32(addr)
	for i := 0; i < r.n; i++ {
		if a >= r.lo[i] && a < r.hi[i] {
			return uint16(r.lo[i]), r.hi[i]
		}
	}
	return addr, uint32(addr)
}

// DataPages is the data-access certificate behind the bus's Read16/Write16
// fast path: the pages on which every read (read) and every write (write) is
// allowed under the current configuration. Pages split by a fixed region cut
// — the FRAM/vector boundary at 0xFF80, the debug window — are on neither
// map while the unit is enabled. Like ExecSpan it comes from the
// configuration's shared plan record, holds for the current ExecGen, and
// never latches violation state.
func (u *Unit) DataPages() (read, write mem.PageSet) {
	p := u.plan()
	return p.read, p.write
}

// plan returns the record for the current configuration.
func (u *Unit) plan() *plan { return u.cur }

// resolve finds the record for the unit's registers: the current record if
// they still match it, else a successor of it.
func (u *Unit) resolve() *plan {
	if !u.Enabled() {
		return openPlan
	}
	k := planKey(u.segB1) | planKey(u.segB2)<<16 | planKey(u.sam)<<32 | planKey(u.ctl0)<<48
	if u.Cap == CapabilityAdvanced {
		k |= 1 << 63
	}
	if u.cur.key == k {
		return u.cur
	}
	return u.cur.successor(k, u)
}

func (u *Unit) segmentName(seg int) string {
	b1, b2 := u.Boundaries()
	switch seg {
	case 0:
		return fmt.Sprintf("0x%04X-0x%04X infomem", mem.InfoLo, mem.InfoHi)
	case 1:
		return fmt.Sprintf("0x%04X-0x%04X", mem.FRAMLo, b1-1)
	case 2:
		return fmt.Sprintf("0x%04X-0x%04X", b1, b2-1)
	case 3:
		return fmt.Sprintf("0x%04X-0x%04X", b2, mem.FRAMHi)
	}
	return "?"
}
