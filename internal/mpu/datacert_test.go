package mpu

import (
	"encoding/binary"
	"fmt"
	"testing"

	"amuletiso/internal/engine"
	"amuletiso/internal/mem"
)

// regDevice is a plain word register file standing in for a peripheral.
// log is a running checksum of every write it received, in order.
type regDevice struct {
	regs map[uint16]uint16
	log  uint64
}

func (d *regDevice) DeviceName() string          { return "regs" }
func (d *regDevice) ReadWord(addr uint16) uint16 { return d.regs[addr] }
func (d *regDevice) WriteWord(addr uint16, v uint16) {
	d.regs[addr] = v
	d.log = (d.log+uint64(addr)<<16|uint64(v))*1099511628211 + 1
}

// certRig is one side of the data-certificate differential: a COW bus over
// a shared template with the MPU mapped and installed, a device in
// MPU-covered FRAM, a device on a peripheral page the FR5969 never checks
// and one sharing watched text's page, and a code watch that logs its
// callbacks.
type certRig struct {
	bus   *mem.Bus
	u     *Unit
	devs  []*regDevice
	watch []string
}

// certTemplate is the image both sides boot from.
var certTemplate = func() *mem.Template {
	img := new(mem.BusImage)
	for i := range img {
		img[i] = byte(i*7 + i>>8)
	}
	return mem.NewTemplate(img)
}()

func newCertRig(certify bool) *certRig {
	r := &certRig{bus: mem.NewBusCOW(certTemplate, nil), u: New()}
	// The uncertified side is the -nocert engine: every read, write and
	// fetch takes the per-access oracle path.
	r.u.Install(r.bus, engine.Engine{NoCert: !certify})
	for _, w := range [][2]uint16{{0x6000, 0x6003}, {0x0200, 0x0203}, {0x4470, 0x4473}} {
		d := &regDevice{regs: map[uint16]uint16{}}
		r.devs = append(r.devs, d)
		r.bus.Map(w[0], w[1], d)
	}
	r.bus.WatchCode(mem.NewCodeWatch([]mem.CodeRange{{Lo: 0x4400, Hi: 0x4480}, {Lo: 0x9000, Hi: 0x9300}}),
		codeWriteFunc(func(lo, hi uint16) { r.watch = append(r.watch, fmt.Sprintf("%04x-%04x", lo, hi)) }))
	return r
}

// certAddrs are the addresses the op decoder favours: region edges, the
// configurable boundaries of the grid, device, watched and BSL pages.
var certAddrs = []uint16{
	0x0000, 0x01DE, 0x01E0, 0x0200, 0x0202, 0x05A2, 0x05A4, 0x0FFE, 0x1000, 0x17FE, 0x1800, 0x19FE,
	0x1A00, 0x1C00, 0x23FE, 0x4400, 0x4470, 0x447E, 0x4480, 0x47FE, 0x4800, 0x4FFE, 0x5000,
	0x53FE, 0x5400, 0x5FFE, 0x6000, 0x6002, 0x6004, 0x8FFE, 0x9000, 0x9100, 0xBFFE,
	0xC000, 0xFBFE, 0xFC00, 0xFF7E, 0xFF80, 0xFFFE,
}

// devState is the write logs of the rig's devices.
func (r *certRig) devState() (s [3]uint64) {
	for i, d := range r.devs {
		s[i] = d.log
	}
	return s
}

// runCertOps decodes ops from data and applies each to both rigs, failing on
// the first observable difference.
func runCertOps(t *testing.T, data []byte) {
	t.Helper()
	fast, slow := newCertRig(true), newCertRig(false)
	if len(data) > 0 {
		cfg := certConfigs[int(data[0])%len(certConfigs)]
		cfg.configure(fast.u)
		cfg.configure(slow.u)
		data = data[1:]
	}
	for i := 0; len(data) >= 4; i, data = i+1, data[4:] {
		slowWrites, gen, watched, devs := fast.bus.SlowWrites(), fast.u.ExecGen(), len(fast.watch), fast.devState()
		op := data[0]
		addr := binary.LittleEndian.Uint16(data[1:3])
		if op&0x80 != 0 {
			addr = certAddrs[int(addr)%len(certAddrs)] + uint16(op>>4&1)
		}
		val := uint16(data[3])<<8 | uint16(data[3]^op)
		var got, want string
		switch op & 0xF {
		case 0, 1, 2:
			v1, e1 := fast.bus.Read16(addr)
			v2, e2 := slow.bus.Read16(addr)
			got, want = fmt.Sprint(v1, e1), fmt.Sprint(v2, e2)
		case 3, 4, 5:
			got, want = fmt.Sprint(fast.bus.Write16(addr, val)), fmt.Sprint(slow.bus.Write16(addr, val))
		case 6:
			v1, e1 := fast.bus.Read8(addr)
			v2, e2 := slow.bus.Read8(addr)
			got, want = fmt.Sprint(v1, e1), fmt.Sprint(v2, e2)
		case 7:
			got, want = fmt.Sprint(fast.bus.Write8(addr, uint8(val))), fmt.Sprint(slow.bus.Write8(addr, uint8(val)))
		case 8:
			fast.bus.Poke16(addr, val)
			slow.bus.Poke16(addr, val)
		case 9:
			fast.bus.Poke8(addr, uint8(val))
			slow.bus.Poke8(addr, uint8(val))
		case 10, 11, 12:
			// Gate-style register write through the bus. CTL0 writes carry
			// the password unless op bit 6 is set (a bad-password write);
			// a written lock bit freezes the unit for the rest of the run;
			// CTL1 writes clear the flags whose bits are written as 0.
			reg := []uint16{RegSEGB1, RegSEGB2, RegSAM, RegCTL0, RegCTL1}[int(addr)%5]
			switch {
			case reg == RegCTL0 && op&0x40 == 0:
				val = Password | val&(CtlEnable|CtlLock)
			case reg == RegCTL0 && val&pwMask == Password:
				val ^= 0x0100
			}
			got, want = fmt.Sprint(fast.bus.Write16(reg, val)), fmt.Sprint(slow.bus.Write16(reg, val))
		case 13:
			cfg := certConfigs[int(addr)%len(certConfigs)]
			cfg.configure(fast.u)
			cfg.configure(slow.u)
		case 14:
			got, want = fmt.Sprint(fast.bus.FetchWords(addr&^1, 2+uint16(op>>5&3)*2)),
				fmt.Sprint(slow.bus.FetchWords(addr&^1, 2+uint16(op>>5&3)*2))
		case 15:
			fast.bus.LoadBytes(addr, data[1:4])
			slow.bus.LoadBytes(addr, data[1:4])
		}
		if got != want {
			t.Fatalf("op %d (%#02x @ %#04x): certified bus %s, oracle bus %s", i, op, addr, got, want)
		}
		if fast.u.Flags() != slow.u.Flags() || fast.u.Violations() != slow.u.Violations() {
			t.Fatalf("op %d (%#02x @ %#04x): MPU flags %#x/%d, oracle %#x/%d", i, op, addr,
				fast.u.Flags(), fast.u.Violations(), slow.u.Flags(), slow.u.Violations())
		}
		if fast.devState() != slow.devState() {
			t.Fatalf("op %d (%#02x @ %#04x): device writes %x, oracle %x", i, op, addr, fast.devState(), slow.devState())
		}
		// The block JIT skips its post-store re-probe while SlowWrites stands
		// still, so a bus op that left it alone must have changed no MPU
		// configuration, fired no code watch and written no device (op 13
		// reprograms the unit from Go, outside the bus).
		if op&0xF != 13 && fast.bus.SlowWrites() == slowWrites &&
			(fast.u.ExecGen() != gen || len(fast.watch) != watched || fast.devState() != devs) {
			t.Fatalf("op %d (%#02x @ %#04x): configuration, code watch or device changed without a slow write",
				i, op, addr)
		}
	}
	r1, w1, f1 := fast.bus.Stats()
	r2, w2, f2 := slow.bus.Stats()
	if r1 != r2 || w1 != w2 || f1 != f2 {
		t.Fatalf("stats %d/%d/%d, oracle %d/%d/%d", r1, w1, f1, r2, w2, f2)
	}
	if fast.bus.DirtyPages() != slow.bus.DirtyPages() {
		t.Fatalf("dirty pages %d, oracle %d", fast.bus.DirtyPages(), slow.bus.DirtyPages())
	}
	if fmt.Sprint(fast.watch) != fmt.Sprint(slow.watch) {
		t.Fatalf("code-watch callbacks %v, oracle %v", fast.watch, slow.watch)
	}
	var m1, m2 mem.BusImage
	fast.bus.SnapshotData(&m1)
	slow.bus.SnapshotData(&m2)
	if m1 != m2 {
		t.Fatal("memory contents differ from the oracle bus")
	}
}

// TestDataCertificatesMatchOracle runs random op sequences from every grid
// configuration on a bus certified by the unit and on one whose checker can
// only check: values, violations, latched MPU flags, stats, dirty pages,
// code-watch callbacks and memory must all agree.
func TestDataCertificatesMatchOracle(t *testing.T) {
	rng := uint64(0x2545F4914F6CDD1D)
	for seq := 0; seq < 200; seq++ {
		data := make([]byte, 1+4*1500)
		for i := range data {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			data[i] = byte(rng >> 24)
		}
		data[0] = byte(seq)
		runCertOps(t, data)
	}
}

// FuzzDataCertificates drives the certified-vs-oracle bus differential from
// fuzz bytes: the first byte picks a grid configuration, every following
// four bytes one operation.
func FuzzDataCertificates(f *testing.F) {
	for i := range certConfigs {
		// Per grid configuration: a stack-style write/read pair on every
		// favoured address, a gate-style plan switch, and a byte store into
		// watched text.
		seed := []byte{byte(i)}
		for a := range certAddrs {
			seed = append(seed, 0x83, byte(a), 0, 0x5A, 0x80, byte(a), 0, 0)
		}
		seed = append(seed, 0x0A, 0, 0, 0x50, 0x0B, 1, 0, 0x60, 0x0C, 2, 0, 0x03, 0x87, 13, 0, 0x99)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runCertOps(t, data)
	})
}

// TestUncheckedPagesNeverDenied sweeps, for both capabilities, every word
// and byte address of every page Unchecked names against CheckAccess under
// the whole certificate grid and a deny-everything plan: no access of any
// kind may be denied there. Every other page must hold an address the
// deny-everything plan denies, so the set is as large as it can be.
func TestUncheckedPagesNeverDenied(t *testing.T) {
	for _, c := range []Capability{CapabilityFR5969, CapabilityAdvanced} {
		cfgs := []certConfig{{"deny-all", c, 0x5000, 0x6000, 0, true, false}}
		for _, cfg := range certConfigs {
			cfg.cap = c
			cfgs = append(cfgs, cfg)
		}
		var set mem.PageSet
		for _, cfg := range cfgs {
			u := New()
			cfg.configure(u)
			set = *u.Unchecked()
			for p := 0; p < 256; p++ {
				if !set.Has(p) {
					continue
				}
				for a := p << 8; a < (p+1)<<8; a++ {
					for _, kind := range []mem.Kind{mem.Read, mem.Write, mem.Execute} {
						if v := u.CheckAccess(mem.Access{Addr: uint16(a), Kind: kind, Byte: a&1 != 0}); v != nil {
							t.Fatalf("cap %d, %s: unchecked page %#02x denies %v", c, cfg.name, p, v)
						}
					}
				}
			}
		}
		deny := New()
		cfgs[0].configure(deny)
		n := 0
		for p := 0; p < 256; p++ {
			if set.Has(p) {
				n++
				continue
			}
			denied := false
			for a := p << 8; a < (p+1)<<8 && !denied; a += 2 {
				denied = deny.CheckAccess(mem.Access{Addr: uint16(a), Kind: mem.Write}) != nil
			}
			if !denied {
				t.Fatalf("cap %d: page %#02x is never denied but not in the unchecked set", c, p)
			}
		}
		t.Logf("cap %d: %d unchecked pages", c, n)
	}
}

// codeWriteFunc adapts a function to mem.CodeWriter.
type codeWriteFunc func(lo, hi uint16)

func (f codeWriteFunc) CodeWritten(lo, hi uint16) { f(lo, hi) }
