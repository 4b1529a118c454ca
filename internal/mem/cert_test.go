package mem

import "testing"

// certChecker is a minimal ExecCertifier over one configurable denied
// window, with a generation the tests bump explicitly.
type certChecker struct {
	denyLo, denyHi uint16 // inclusive denied window (execute only)
	gen            uint64
	checks         int // CheckAccess invocations (oracle activity probe)
}

func (c *certChecker) CheckAccess(a Access) *Violation {
	c.checks++
	if a.Kind == Execute && a.Addr >= c.denyLo && a.Addr <= c.denyHi {
		return &Violation{Access: a, Rule: "test: execute denied"}
	}
	return nil
}

func (c *certChecker) ExecGen() uint64 { return c.gen }

func (c *certChecker) ExecSpan(addr uint16) (uint16, uint32) {
	switch {
	case addr < c.denyLo:
		return 0, uint32(c.denyLo)
	case addr > c.denyHi:
		return c.denyHi + 1, 0x10000
	default:
		return addr, uint32(addr)
	}
}

// TestFetchWordsCertified checks the fast path: fetches inside the certified
// span count identically to the oracle but never consult CheckAccess, and
// fetches outside it (or crossing the span edge) take the oracle per word.
func TestFetchWordsCertified(t *testing.T) {
	b := NewBus()
	ck := &certChecker{denyLo: 0x8000, denyHi: 0x8FFF}
	b.SetChecker(ck)

	if v := b.FetchWords(0x4400, 6); v != nil {
		t.Fatalf("allowed fetch denied: %v", v)
	}
	if _, _, f := b.Stats(); f != 3 {
		t.Fatalf("fetches = %d, want 3", f)
	}
	if lo, hi, ok := b.ExecCert(); !ok || lo != 0 || hi != 0x8000 {
		t.Fatalf("cert = [%#x, %#x) ok=%v, want [0, 0x8000)", lo, hi, ok)
	}
	checksAfterCert := ck.checks
	if v := b.FetchWords(0x5000, 4); v != nil {
		t.Fatal(v)
	}
	if ck.checks != checksAfterCert {
		t.Fatalf("certified fetch consulted CheckAccess %d times", ck.checks-checksAfterCert)
	}

	// A fetch crossing the span edge falls to the oracle and is denied at
	// the exact word the per-word path would deny.
	v := b.FetchWords(0x7FFE, 4)
	if v == nil || v.Access.Addr != 0x8000 {
		t.Fatalf("edge fetch: got %v, want denial at 0x8000", v)
	}
	// A fetch in the denied window is denied on its first word.
	if v := b.FetchWords(0x8100, 2); v == nil {
		t.Fatal("denied fetch allowed")
	}

	// After a generation bump the span re-validates around the new address.
	ck.gen++
	if v := b.FetchWords(0x9000, 2); v != nil {
		t.Fatal(v)
	}
	if lo, hi, ok := b.ExecCert(); !ok || lo != 0x9000 || hi != 0x10000 {
		t.Fatalf("cert after re-span = [%#x, %#x) ok=%v, want [0x9000, 0x10000)", lo, hi, ok)
	}
}

// TestFetchWordsMatchesOracle fuzzes the certified path against the per-word
// oracle over every alignment of the denied window: identical violations
// (address and word), identical fetch counts.
func TestFetchWordsMatchesOracle(t *testing.T) {
	for _, start := range []uint16{0x7FF8, 0x7FFA, 0x7FFC, 0x7FFE, 0x8000, 0x8FF8, 0x8FFE, 0x9000, 0x4400} {
		for _, size := range []uint16{2, 4, 6, 8} {
			fast := NewBus()
			fast.SetChecker(&certChecker{denyLo: 0x8000, denyHi: 0x8FFF})
			slow := NewBus()
			slow.SetChecker(&certChecker{denyLo: 0x8000, denyHi: 0x8FFF})

			vf := fast.FetchWords(start, size)
			vs := slow.fetchWordsOracle(start, size)
			if (vf == nil) != (vs == nil) {
				t.Fatalf("[%#x,+%d): fast %v, oracle %v", start, size, vf, vs)
			}
			if vf != nil && vf.Access != vs.Access {
				t.Fatalf("[%#x,+%d): fast denies %+v, oracle %+v", start, size, vf.Access, vs.Access)
			}
			_, _, ff := fast.Stats()
			_, _, fs := slow.Stats()
			if ff != fs {
				t.Fatalf("[%#x,+%d): fast counted %d fetches, oracle %d", start, size, ff, fs)
			}
		}
	}
}

// TestCertDroppedByWritesIntoWatchedCode checks every write path that can
// alter text — checked word/byte writes, loader pokes, bulk loads — drops
// the certificate, and that a later plan change (generation bump) re-arms
// it. Writes outside watched code must leave the certificate alone.
func TestCertDroppedByWritesIntoWatchedCode(t *testing.T) {
	paths := []struct {
		name  string
		write func(b *Bus, addr uint16)
	}{
		{"Write16", func(b *Bus, a uint16) {
			if v := b.Write16(a, 0xBEEF); v != nil {
				t.Fatal(v)
			}
		}},
		{"Write8", func(b *Bus, a uint16) {
			if v := b.Write8(a, 0xEF); v != nil {
				t.Fatal(v)
			}
		}},
		{"Poke16", func(b *Bus, a uint16) { b.Poke16(a, 0xBEEF) }},
		{"Poke8", func(b *Bus, a uint16) { b.Poke8(a, 0xEF) }},
		{"LoadBytes", func(b *Bus, a uint16) { b.LoadBytes(a, []byte{1, 2, 3, 4}) }},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			b := NewBus()
			ck := &certChecker{denyLo: 0xF000, denyHi: 0xFFFF}
			b.SetChecker(ck)
			b.WatchCode(NewCodeWatch([]CodeRange{{Lo: 0x4400, Hi: 0x4800}}), codeWriteFunc(func(lo, hi uint16) {}))

			if v := b.FetchWords(0x4400, 4); v != nil {
				t.Fatal(v)
			}
			if _, _, ok := b.ExecCert(); !ok {
				t.Fatal("certificate not established")
			}

			// Outside watched code: certificate survives.
			p.write(b, 0x5000)
			if _, _, ok := b.ExecCert(); !ok {
				t.Fatal("write outside watched code dropped the certificate")
			}

			// Into watched code: dropped, and fetches take the oracle again.
			p.write(b, 0x4500)
			if _, _, ok := b.ExecCert(); ok {
				t.Fatal("write into watched code kept the certificate")
			}
			before := ck.checks
			if v := b.FetchWords(0x4400, 4); v != nil {
				t.Fatal(v)
			}
			if ck.checks == before {
				t.Fatal("dropped certificate did not fall back to per-word checks")
			}

			// The next plan change re-certifies.
			ck.gen++
			if v := b.FetchWords(0x4400, 4); v != nil {
				t.Fatal(v)
			}
			if _, _, ok := b.ExecCert(); !ok {
				t.Fatal("generation bump did not re-arm the certificate")
			}
		})
	}
}

// TestCheckOnlyCheckerPerWord checks the -nocert engine's bus: a checker
// seen only through CheckAccess (its certifier interfaces hidden) is
// consulted on every fetched word, and no certificate forms.
func TestCheckOnlyCheckerPerWord(t *testing.T) {
	b := NewBus()
	ck := &certChecker{denyLo: 0xF000, denyHi: 0xFFFF}
	b.SetChecker(struct{ Checker }{ck})
	if v := b.FetchWords(0x4400, 6); v != nil {
		t.Fatal(v)
	}
	if ck.checks != 3 {
		t.Fatalf("check-only checker: CheckAccess ran %d times, want 3", ck.checks)
	}
	if _, _, ok := b.ExecCert(); ok {
		t.Fatal("certificate established through a check-only checker")
	}
}

// TestCertCheckerSwap checks a Checker replacement invalidates the cached
// certificate identity immediately.
func TestCertCheckerSwap(t *testing.T) {
	b := NewBus()
	open := &certChecker{denyLo: 1, denyHi: 0} // denies nothing
	b.SetChecker(open)
	if v := b.FetchWords(0x4400, 2); v != nil {
		t.Fatal(v)
	}
	if _, hi, ok := b.ExecCert(); !ok || hi != 0x10000 {
		t.Fatalf("open checker should certify everything, got hi=%#x ok=%v", hi, ok)
	}
	closed := &certChecker{denyLo: 0x4000, denyHi: 0x4FFF}
	b.SetChecker(closed)
	if v := b.FetchWords(0x4400, 2); v == nil {
		t.Fatal("stale certificate honored after checker swap")
	}
}
