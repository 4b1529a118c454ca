package mpu

import (
	"testing"

	"amuletiso/internal/mem"
)

// certConfig is one point of the certificate test grid.
type certConfig struct {
	name    string
	cap     Capability
	b1, b2  uint16
	sam     uint16
	enabled bool
	lock    bool
}

// certConfigs spans both capabilities, plans with execute-only, no-execute,
// read-only, write-only and open segments, and degenerate boundaries
// (inverted, below FRAM, at the FRAM/vector page 0xFF).
var certConfigs = []certConfig{
	{"disabled", CapabilityFR5969, 0x5000, 0x6000, 0, false, false},
	{"app-plan", CapabilityFR5969, 0x5000, 0x5400,
		RWX(1, false, false, true) | RWX(2, true, true, false), true, false},
	{"os-plan", CapabilityFR5969, 0x4800, 0x6000,
		RWX(1, false, false, true) | RWX(2, true, true, false) | RWX(3, true, true, false), true, false},
	{"all-exec", CapabilityFR5969, 0x5000, 0x6000, 0x7777, true, false},
	{"none-exec", CapabilityFR5969, 0x5000, 0x6000, 0x3333, true, false},
	{"infomem-exec-only", CapabilityFR5969, 0x8000, 0xC000, RWX(0, false, false, true), true, false},
	{"read-only-and-write-only", CapabilityFR5969, 0x6000, 0x9000,
		RWX(1, true, false, false) | RWX(2, false, true, false) | RWX(3, true, true, true) | RWX(0, true, false, false), true, false},
	{"degenerate-b1-above-b2", CapabilityFR5969, 0xC000, 0x4800,
		RWX(1, false, false, true) | RWX(3, false, false, true), true, false},
	{"boundaries-below-fram", CapabilityFR5969, 0x0000, 0x0400,
		RWX(3, false, false, true), true, false},
	{"boundaries-at-top", CapabilityFR5969, 0xFC00, 0xFC00,
		RWX(1, true, true, false) | RWX(3, false, false, false), true, false},
	{"locked-open", CapabilityFR5969, 0x5000, 0x6000, 0x7777, true, true},
	{"advanced-app-plan", CapabilityAdvanced, 0x5000, 0x5400,
		RWX(1, false, false, true) | RWX(2, true, true, false), true, false},
	{"advanced-none", CapabilityAdvanced, 0x5000, 0x6000, 0, true, false},
	{"advanced-open", CapabilityAdvanced, 0x5000, 0x6000, 0x7777, true, false},
	{"advanced-read-only-low", CapabilityAdvanced, 0x4400, 0x8000,
		RWX(1, true, false, false) | RWX(2, true, true, true) | RWX(3, true, true, false), true, false},
}

// configure programs u with cfg.
func (cfg certConfig) configure(u *Unit) {
	u.Cap = cfg.cap
	u.Configure(cfg.b1, cfg.b2, cfg.sam, cfg.enabled)
	if cfg.lock {
		u.WriteWord(RegCTL0, Password|CtlEnable|CtlLock)
	}
}

// allowedWords asks the CheckAccess enforcement oracle about every word of
// the address space for one access kind (latching is fine on a dedicated
// unit; it never changes permissions).
func allowedWords(u *Unit, kind mem.Kind) []bool {
	allowed := make([]bool, 1<<15)
	for i := range allowed {
		allowed[i] = u.CheckAccess(mem.Access{Addr: uint16(i) << 1, Kind: kind}) == nil
	}
	return allowed
}

// TestExecSpanAgreesWithCheckAccess sweeps the entire address space under
// the certificate grid and asserts, for every word, that ExecSpan's answer
// agrees with the CheckAccess enforcement oracle and that the returned span
// is maximal, and that DataPages certifies a page for reads (writes) exactly
// when every word on it may be read (written) and no fixed region cut
// splits it — the debug window's page and the FRAM/vector page 0xFF stay
// off both maps while the unit is enabled.
func TestExecSpanAgreesWithCheckAccess(t *testing.T) {
	for _, cfg := range certConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			u := New()
			cfg.configure(u)

			allowed := allowedWords(u, mem.Execute)
			for i := range allowed {
				addr := uint16(i) << 1
				lo, hi := u.ExecSpan(addr)
				inSpan := uint32(addr) >= uint32(lo) && uint32(addr) < hi
				if inSpan != allowed[i] {
					t.Fatalf("addr %#x: ExecSpan [%#x,%#x) says %v, CheckAccess says %v",
						addr, lo, hi, inSpan, allowed[i])
				}
				if !allowed[i] {
					continue
				}
				// Every word of the span must be allowed (soundness) — walked
				// once per span, from its left edge.
				if addr == lo {
					for a := uint32(lo); a < hi; a += 2 {
						if !allowed[a>>1] {
							t.Fatalf("addr %#x: span [%#x,%#x) contains denied word %#x", addr, lo, hi, a)
						}
					}
				}
				// …and the span must be maximal (completeness), or gates
				// would pay oracle fetches inside provably-safe text.
				if lo >= 2 && allowed[(uint32(lo)-2)>>1] {
					t.Fatalf("addr %#x: span [%#x,%#x) not maximal on the left", addr, lo, hi)
				}
				if hi < 0x10000 && allowed[hi>>1] {
					t.Fatalf("addr %#x: span [%#x,%#x) not maximal on the right", addr, lo, hi)
				}
			}

			read, write := u.DataPages()
			for _, kc := range []struct {
				kind mem.Kind
				set  mem.PageSet
			}{{mem.Read, read}, {mem.Write, write}} {
				allowed := allowedWords(u, kc.kind)
				for p := 0; p < 256; p++ {
					all := true
					for w := p << 7; w < (p+1)<<7; w++ {
						all = all && allowed[w]
					}
					split := cfg.enabled && (p == int(mem.DebugLo>>8) || p == int(mem.VectLo>>8))
					if want := all && !split; kc.set.Has(p) != want {
						t.Fatalf("page %#02x: DataPages %s says %v, CheckAccess (all words allowed=%v, split=%v)",
							p, kc.kind, kc.set.Has(p), all, split)
					}
				}
			}
		})
	}
}

// TestPlanRecordsShared checks that units in the same configuration are
// served the same immutable record, and that a unit switching between
// configurations keeps getting the record matching its registers.
func TestPlanRecordsShared(t *testing.T) {
	a, b := New(), New()
	cfg := certConfigs[1]
	cfg.configure(a)
	cfg.configure(b)
	if a.plan() != b.plan() {
		t.Fatal("two units in one configuration hold different plan records")
	}
	os := certConfigs[2]
	for i := 0; i < 3; i++ {
		os.configure(a)
		// InfoMem has no rights under the OS plan; segment 1 is execute-only.
		if lo, hi := a.ExecSpan(0x4400); lo != 0x1A00 || hi != 0x4800 {
			t.Fatalf("os plan: ExecSpan(0x4400) = [%#x, %#x), want [0x1a00, 0x4800)", lo, hi)
		}
		cfg.configure(a)
		if a.plan() != b.plan() {
			t.Fatal("returning to the app plan did not find the shared record")
		}
	}
}

// TestPlanStoreBounded drives 100k random configurations (arbitrary register
// values, as adversarial gate code may write) through one unit and checks
// that the shared store never holds more records than its fixed table, while
// every answer stays the one for the unit's current registers.
func TestPlanStoreBounded(t *testing.T) {
	u := New()
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint16 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return uint16(rng)
	}
	for i := 0; i < 100_000; i++ {
		u.Cap = Capability(next() & 1)
		u.Configure(next(), next(), next(), next()&7 != 0)
		p := u.plan()
		if u.Enabled() && uint64(p.key)&^(1<<63) != uint64(u.segB1)|uint64(u.segB2)<<16|uint64(u.sam)<<32|uint64(u.ctl0)<<48 {
			t.Fatalf("config %d: plan record for another configuration", i)
		}
	}
	n := 0
	for i := range planStore {
		if planStore[i].Load() != nil {
			n++
		}
	}
	if n > planStoreSlots {
		t.Fatalf("plan store holds %d records, bound %d", n, planStoreSlots)
	}
	t.Logf("plan store: %d of %d slots in use", n, planStoreSlots)
}

// TestPlanStoreConcurrent has several goroutines, each with its own unit,
// cycle through the grid at once (as fleet workers do) while random
// configurations churn the shared store: every record served must equal one
// built afresh for the unit's registers.
func TestPlanStoreConcurrent(t *testing.T) {
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			u := New()
			for i := 0; i < 2000; i++ {
				cfg := certConfigs[(i+w)%len(certConfigs)]
				if i%3 == w%3 {
					cfg.b1, cfg.sam = uint16(i*0x400), uint16(i*2654435761>>7)
				}
				cfg.configure(u)
				got := u.plan()
				want := openPlan
				if u.Enabled() {
					want = newPlan(got.key, u)
				}
				if got.key != want.key || *got.runs != *want.runs ||
					got.read != want.read || got.write != want.write {
					t.Errorf("worker %d, config %d: shared record differs from a fresh build", w, i)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// TestExecGen pins which operations advance the certificate generation:
// configuration changes do, violation latching and rejected writes do not.
func TestExecGen(t *testing.T) {
	u := New()
	g := u.ExecGen()

	// Rejected register writes (bad password, locked unit) leave it alone.
	u.WriteWord(RegCTL0, CtlEnable) // missing password
	if u.ExecGen() != g {
		t.Fatal("rejected CTL0 write bumped the generation")
	}
	u.WriteWord(RegCTL0, Password|CtlEnable)
	if u.ExecGen() == g {
		t.Fatal("enable did not bump the generation")
	}
	g = u.ExecGen()

	u.WriteWord(RegSEGB1, 0x5000)
	u.WriteWord(RegSEGB2, 0x6000)
	u.WriteWord(RegSAM, 0x0777)
	if u.ExecGen() != g+3 {
		t.Fatalf("three boundary/rights writes bumped gen by %d, want 3", u.ExecGen()-g)
	}
	g = u.ExecGen()

	// Violation latching is not a configuration change (InfoMem has no
	// execute right under SAM 0x0777).
	if v := u.CheckAccess(mem.Access{Addr: 0x1800, Kind: mem.Execute}); v == nil {
		t.Fatal("expected a violation to latch")
	}
	u.WriteWord(RegCTL1, 0) // clear flags
	if u.ExecGen() != g {
		t.Fatal("violation latch or flag clear bumped the generation")
	}

	// Go-side Configure is a plan change like any other.
	u.Configure(0x4800, 0x9000, 0x7777, true)
	if u.ExecGen() == g {
		t.Fatal("Configure did not bump the generation")
	}
	g = u.ExecGen()

	// A locked unit rejects (and must not bump).
	u.WriteWord(RegCTL0, Password|CtlEnable|CtlLock)
	g = u.ExecGen()
	u.WriteWord(RegSEGB1, 0x4400)
	if u.ExecGen() != g {
		t.Fatal("locked boundary write bumped the generation")
	}
}
