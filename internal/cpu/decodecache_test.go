package cpu

import (
	"testing"

	"amuletiso/internal/engine"
	"amuletiso/internal/isa"
	"amuletiso/internal/mem"
)

// loadProgram assembles instrs at 0x4400, attaches a predecode cache over
// them when cached is true, and returns the CPU plus the end of text.
func loadProgram(t *testing.T, cached bool, instrs ...isa.Instr) (*CPU, uint16) {
	t.Helper()
	bus := mem.NewBus()
	c := New(bus)
	addr := uint16(0x4400)
	for _, in := range instrs {
		for _, w := range isa.MustEncode(in) {
			bus.Poke16(addr, w)
			addr += 2
		}
	}
	c.SetPC(0x4400)
	c.SetSP(0x2400)
	if cached {
		c.UseProgram(isa.Predecode(bus, []isa.TextRange{{Lo: 0x4400, Hi: addr}}), engine.Engine{})
		if c.Program() == nil {
			t.Fatal("UseProgram did not attach")
		}
	}
	return c, addr
}

// fetchProgram is a small mixed-size instruction sequence: 1-, 2- and 3-word
// encodings, so the per-word accounting is exercised on every shape.
var fetchProgram = []isa.Instr{
	{Op: isa.MOV, Src: isa.Imm(0x1234), Dst: isa.RegOp(isa.R4)},    // 2 words
	{Op: isa.ADD, Src: isa.RegOp(isa.R4), Dst: isa.RegOp(isa.R5)},  // 1 word
	{Op: isa.MOV, Src: isa.Imm(0x2222), Dst: isa.Abs(0x2000)},      // 3 words
	{Op: isa.XOR, Src: isa.Abs(0x2000), Dst: isa.RegOp(isa.R5)},    // 2 words
	{Op: isa.PUSH, Src: isa.RegOp(isa.R5)},                         // 1 word
	{Op: isa.MOV, Src: isa.IndInc(isa.SP), Dst: isa.RegOp(isa.R6)}, // 1 word
}

// TestFetchAccounting asserts the satellite fix: on both the cached and the
// live-decode path, Bus.Stats() counts each instruction word exactly once —
// the total equals the sum of the executed encodings' word counts.
func TestFetchAccounting(t *testing.T) {
	wantWords := uint64(0)
	for _, in := range fetchProgram {
		wantWords += uint64(in.Words())
	}
	for _, cached := range []bool{false, true} {
		name := "slow"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			c, _ := loadProgram(t, cached, fetchProgram...)
			for i := range fetchProgram {
				if f := c.Step(); f != nil {
					t.Fatalf("step %d: %v", i, f)
				}
			}
			_, _, fetches := c.Bus.Stats()
			if fetches != wantWords {
				t.Errorf("fetches = %d, want %d (one per instruction word)", fetches, wantWords)
			}
			if c.Insns != uint64(len(fetchProgram)) {
				t.Errorf("insns = %d, want %d", c.Insns, len(fetchProgram))
			}
		})
	}
}

// TestCachedPathMatchesSlowPath runs the same program on both paths and
// compares the complete observable machine state: registers, cycles,
// instruction count, bus statistics, and the per-access profile.
func TestCachedPathMatchesSlowPath(t *testing.T) {
	type result struct {
		regs          [isa.NumRegs]uint16
		cycles, insns uint64
		reads, writes uint64
		fetches       uint64
		accesses      []mem.Access
	}
	exec := func(cached bool) result {
		c, _ := loadProgram(t, cached, fetchProgram...)
		var accesses []mem.Access
		c.Bus.OnAccess = func(a mem.Access) { accesses = append(accesses, a) }
		for i := 0; i < len(fetchProgram); i++ {
			if f := c.Step(); f != nil {
				t.Fatalf("cached=%v step %d: %v", cached, i, f)
			}
		}
		r, w, f := c.Bus.Stats()
		return result{c.Regs, c.Cycles, c.Insns, r, w, f, accesses}
	}
	slow, fast := exec(false), exec(true)
	if slow.regs != fast.regs || slow.cycles != fast.cycles || slow.insns != fast.insns ||
		slow.reads != fast.reads || slow.writes != fast.writes || slow.fetches != fast.fetches {
		t.Errorf("state diverged:\n  slow: %+v\n  fast: %+v", slow, fast)
	}
	if len(slow.accesses) != len(fast.accesses) {
		t.Fatalf("access trace length: slow %d, fast %d", len(slow.accesses), len(fast.accesses))
	}
	for i := range slow.accesses {
		if slow.accesses[i] != fast.accesses[i] {
			t.Errorf("access %d: slow %+v, fast %+v", i, slow.accesses[i], fast.accesses[i])
		}
	}
}

// TestCachedSelfModify pokes a cached instruction's extension word through
// the CHECKED write path (a store the program itself could execute) and
// checks the re-executed instruction uses the new bytes.
func TestCachedSelfModify(t *testing.T) {
	c, _ := loadProgram(t, true,
		isa.Instr{Op: isa.MOV, Src: isa.Imm(0x1111), Dst: isa.RegOp(isa.R4)},
	)
	if f := c.Step(); f != nil {
		t.Fatal(f)
	}
	if c.Regs[isa.R4] != 0x1111 {
		t.Fatalf("R4 = %04X, want 1111", c.Regs[isa.R4])
	}
	// Overwrite the immediate's extension word (0x4402) via a checked write,
	// as self-modifying code would, then re-execute from 0x4400.
	if v := c.Bus.Write16(0x4402, 0x2222); v != nil {
		t.Fatal(v)
	}
	c.SetPC(0x4400)
	if f := c.Step(); f != nil {
		t.Fatal(f)
	}
	if c.Regs[isa.R4] != 0x2222 {
		t.Fatalf("after self-modify: R4 = %04X, want 2222 (stale cache)", c.Regs[isa.R4])
	}
}

// TestUseProgramDisabled checks the live-decode engine: under
// NoDecodeCache, UseProgram detaches the cache and execution still works.
func TestUseProgramDisabled(t *testing.T) {
	c, end := loadProgram(t, true, fetchProgram...)
	c.UseProgram(isa.Predecode(c.Bus, []isa.TextRange{{Lo: 0x4400, Hi: end}}), engine.Engine{NoDecodeCache: true})
	if c.Program() != nil {
		t.Fatal("cache attached under NoDecodeCache")
	}
	for i := range fetchProgram {
		if f := c.Step(); f != nil {
			t.Fatalf("step %d: %v", i, f)
		}
	}
}
