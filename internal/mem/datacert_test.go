package mem

import "testing"

// dataChecker is a data certifier over certChecker: it certifies the pages
// in read/write and denies data accesses everywhere else. It claims the pages
// in unchecked are never checked (none unless a test adds some).
type dataChecker struct {
	certChecker
	read, write, unchecked PageSet
}

func (c *dataChecker) CheckAccess(a Access) *Violation {
	c.checks++
	p := int(a.Addr >> pageShift)
	if (a.Kind == Read && !c.read.Has(p)) || (a.Kind == Write && !c.write.Has(p)) {
		return &Violation{Access: a, Rule: "test: data denied"}
	}
	return nil
}

func (c *dataChecker) ExecGenRef() *uint64              { return &c.gen }
func (c *dataChecker) DataGenRef() *uint64              { return &c.gen }
func (c *dataChecker) DataPages() (read, write PageSet) { return c.read, c.write }
func (c *dataChecker) Unchecked() *PageSet              { return &c.unchecked }

// newDataBus returns a bus whose checker certifies every page for reads and
// writes, with one device on page 0x60, one on page 0x02 (which the checker
// declares unchecked) and watched text on page 0x44.
func newDataBus(t *testing.T) (*Bus, *dataChecker) {
	t.Helper()
	b := NewBus()
	ck := &dataChecker{}
	for i := range ck.read {
		ck.read[i], ck.write[i] = ^uint64(0), ^uint64(0)
	}
	ck.unchecked.Add(0x02)
	b.Map(0x6000, 0x6001, &fakeDev{})
	b.Map(0x0200, 0x0201, &fakeDev{})
	b.SetChecker(ck)
	b.WatchCode(NewCodeWatch([]CodeRange{{Lo: 0x4400, Hi: 0x4480}}), codeWriteFunc(func(lo, hi uint16) {}))
	return b, ck
}

// TestDataCertificateSkipsChecker checks which word accesses take the fast
// path: plain certified pages skip CheckAccess; device pages, watched text
// and the BSL ROM (writes only) always reach it.
func TestDataCertificateSkipsChecker(t *testing.T) {
	b, ck := newDataBus(t)
	for _, c := range []struct {
		name      string
		addr      uint16
		read      bool
		wantCheck bool
	}{
		{"read plain", 0x8000, true, false},
		{"write plain", 0x8000, false, false},
		{"write SRAM", 0x2000, false, false},
		{"read device", 0x6000, true, true},
		{"write device", 0x6000, false, true},
		{"read watched text", 0x4400, true, false},
		{"write watched text", 0x4400, false, true},
		{"read BSL", 0x1000, true, false},
		{"write BSL", 0x1000, false, true},
	} {
		before := ck.checks
		if c.read {
			b.Read16(c.addr)
		} else {
			b.Write16(c.addr, 0x1234)
		}
		if got := ck.checks != before; got != c.wantCheck {
			t.Errorf("%s: consulted checker = %v, want %v", c.name, got, c.wantCheck)
		}
	}
	if r, w, _ := b.Stats(); r != 4 || w != 4 {
		t.Fatalf("stats reads=%d writes=%d, want 4/4 (refused BSL write uncounted)", r, w)
	}
	if b.Peek16(0x8000) != 0x1234 {
		t.Fatal("fast-path write lost")
	}
}

// TestDataCertificateInvalidation checks that a generation bump, Map,
// WatchCode, a swap to a check-only checker and an access profiler all take
// effect on the very next access.
func TestDataCertificateInvalidation(t *testing.T) {
	b, ck := newDataBus(t)
	probe := func(addr uint16) bool { // did a Read16 consult the checker?
		before := ck.checks
		b.Read16(addr)
		return ck.checks != before
	}
	if probe(0x9000) {
		t.Fatal("certified read consulted the checker")
	}
	ck.read.Clear(0x90)
	if probe(0x9000) {
		t.Fatal("fast path re-read DataPages without a generation bump")
	}
	ck.gen++
	if v := b.Write16(0x9000, 0); v != nil {
		t.Fatal(v)
	}
	if _, err := b.Read16(0x9000); err == nil {
		t.Fatal("read of a page revoked at a generation bump allowed")
	}

	b.Map(0xA000, 0xA001, &fakeDev{})
	if !probe(0xA000) {
		t.Fatal("page mapped after certification skipped the checker")
	}
	b.WatchCode(NewCodeWatch([]CodeRange{{Lo: 0xB000, Hi: 0xB010}}), codeWriteFunc(func(lo, hi uint16) {}))
	before := ck.checks
	b.Write16(0xB000, 1)
	if ck.checks == before {
		t.Fatal("write into newly watched text skipped the checker")
	}

	b.SetChecker(struct{ Checker }{ck}) // the -nocert view: CheckAccess only
	off := probe(0x8000)
	before = ck.checks
	b.Write16(0x0200, 1)
	offDev := ck.checks != before
	b.SetChecker(ck)
	if !off {
		t.Fatal("check-only checker, but a read skipped the checker")
	}
	if !offDev {
		t.Fatal("check-only checker, but an unchecked device store skipped the checker")
	}
	b.OnAccess = func(Access) {}
	if !probe(0x8000) {
		t.Fatal("profiled read skipped the checker")
	}
}

// TestSlowWrites pins which writes move the counter the block JIT keys its
// re-probe on: every write path except a data fast-path store.
func TestSlowWrites(t *testing.T) {
	b, _ := newDataBus(t)
	for _, c := range []struct {
		name  string
		write func()
		moves bool
	}{
		{"fast Write16", func() { b.Write16(0x8000, 1) }, false},
		{"Read16", func() { b.Read16(0x8000) }, false},
		{"device Write16", func() { b.Write16(0x6000, 1) }, true},
		{"watched Write16", func() { b.Write16(0x4400, 1) }, true},
		{"Write8", func() { b.Write8(0x8000, 1) }, true},
		{"Poke16", func() { b.Poke16(0x8000, 1) }, true},
		{"Poke8", func() { b.Poke8(0x8000, 1) }, true},
		{"LoadBytes", func() { b.LoadBytes(0x8000, []byte{1}) }, true},
		{"RevertVolatile", func() { b.RevertVolatile(new(BusImage)) }, true},
		{"DropExecCert", b.DropExecCert, true},
	} {
		before := b.SlowWrites()
		c.write()
		if moved := b.SlowWrites() != before; moved != c.moves {
			t.Errorf("%s: SlowWrites moved = %v, want %v", c.name, moved, c.moves)
		}
	}
}

// TestDeviceStoreCertificate checks which word stores the certifier's
// unchecked pages let skip the checker: a device store there is the device
// call plus the write and slow-write counters, whatever the generation; a
// store to a device page the certifier checks, to a device sharing watched
// text's page, to the BSL ROM or under a profiler still reaches CheckAccess
// (TestDataCertificateInvalidation covers certificates switched off).
func TestDeviceStoreCertificate(t *testing.T) {
	b, ck := newDataBus(t)
	dev, shared, rom := &fakeDev{}, &fakeDev{}, &fakeDev{}
	b.Map(0x0200, 0x0201, dev)
	b.Map(0x4470, 0x4471, shared) // page 0x44 holds watched text
	b.Map(0x1000, 0x1001, rom)
	for _, p := range []int{0x10, 0x44} {
		ck.unchecked.Add(p)
	}
	store := func(addr, v uint16) bool { // did a Write16 consult the checker?
		before := ck.checks
		if viol := b.Write16(addr, v); viol != nil && addr != 0x1000 {
			t.Fatalf("store %#04x: %v", addr, viol)
		}
		return ck.checks != before
	}
	_, w0, _ := b.Stats()
	slow := b.SlowWrites()
	if store(0x0200, 0x1111) || dev.val != 0x1111 {
		t.Fatalf("unchecked device store: checked or lost (device holds %#x)", dev.val)
	}
	if _, w, _ := b.Stats(); w != w0+1 || b.SlowWrites() != slow+1 {
		t.Fatalf("unchecked device store: writes %d→%d, slow writes %d→%d", w0, w, slow, b.SlowWrites())
	}
	ck.gen++ // a configuration change does not void the device certificate
	if store(0x0200, 0x2222) || dev.val != 0x2222 {
		t.Fatal("device store after a generation bump consulted the checker")
	}
	if !store(0x6000, 1) {
		t.Fatal("store to a checked device page skipped the checker")
	}
	if !store(0x4470, 1) {
		t.Fatal("device store on a watched-text page skipped the checker")
	}
	if !store(0x1000, 1) || rom.val != 0 {
		t.Fatal("device store in the BSL ROM skipped the checker or landed")
	}
	b.OnAccess = func(Access) {}
	if !store(0x0200, 4) {
		t.Fatal("profiled device store skipped the checker")
	}
}
