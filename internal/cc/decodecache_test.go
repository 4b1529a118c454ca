package cc

import (
	"fmt"
	"testing"

	"amuletiso/internal/abi"
	"amuletiso/internal/cpu"
	"amuletiso/internal/engine"
)

// decodeCacheSentinel is an immediate chosen to appear exactly once in the
// compiled text (as the extension word of the MOV that materializes it), so
// tests can locate and overwrite the cached code word that carries it.
const decodeCacheSentinel = 24301

// findSentinelWord scans the app's code segment for the sentinel extension
// word and fails unless it occurs exactly once.
func findSentinelWord(t *testing.T, m *Machine, unit string) uint16 {
	t.Helper()
	codeLo := m.Sym(abi.SymCodeLo(unit))
	codeHi := m.Sym(abi.SymCodeHi(unit))
	var found []uint16
	for a := codeLo; a < codeHi; a += 2 {
		if m.Bus.Peek16(a) == decodeCacheSentinel {
			found = append(found, a)
		}
	}
	if len(found) != 1 {
		t.Fatalf("sentinel %d found at %d code addresses (%#v), need exactly 1",
			decodeCacheSentinel, len(found), found)
	}
	return found[0]
}

// runToExit resets the machine to the entry point and runs it to halt.
func runToExit(t *testing.T, m *Machine) uint16 {
	t.Helper()
	m.CPU.Halted = false
	m.CPU.SetPC(m.Img.Entry)
	reason, fault := m.Run(10_000_000)
	if fault != nil || reason != cpu.StopHalt {
		t.Fatalf("run: stop=%v fault=%v", reason, fault)
	}
	return m.CPU.ExitCode
}

// TestDecodeCacheInvalidation is the torture-style regression test for the
// predecode cache: under every isolation mode, poking a cached code word
// (word poke, byte poke, and a bulk LoadBytes over the code range) must make
// the next execution of that PC use the new bytes.
func TestDecodeCacheInvalidation(t *testing.T) {
	src := fmt.Sprintf("int main() { return %d; }", decodeCacheSentinel)
	for _, mode := range Modes {
		for _, poke := range []string{"poke16", "poke8", "loadbytes"} {
			t.Run(fmt.Sprintf("%v/%s", mode, poke), func(t *testing.T) {
				p, err := CompileProgram("t", src, ProgramOptions{
					Mode: mode, EnableMPU: mode == ModeMPU,
				})
				if err != nil {
					t.Fatal(err)
				}
				if p.Text == nil {
					t.Fatal("program has no predecode cache")
				}
				m := p.Load()
				if m.CPU.Program() == nil {
					t.Fatal("machine did not attach the predecode cache")
				}
				addr := findSentinelWord(t, m, "t")
				if m.CPU.Program().At(addr) == nil && m.CPU.Program().At(addr-2) == nil {
					t.Fatalf("sentinel word at 0x%04X is not inside cached text", addr)
				}

				// First run populates nothing lazily — the cache is ahead of
				// time — but proves the cached path yields the right exit.
				if got := runToExit(t, m); got != decodeCacheSentinel {
					t.Fatalf("pre-poke exit = %d, want %d", got, decodeCacheSentinel)
				}

				const want = 11111
				switch poke {
				case "poke16":
					m.Bus.Poke16(addr, want)
				case "poke8":
					m.Bus.Poke8(addr, byte(want&0xFF))
					m.Bus.Poke8(addr+1, byte(want>>8))
				case "loadbytes":
					// Rewrite the whole code segment image with the word
					// changed, as a firmware update would.
					lo, hi := m.Sym(abi.SymCodeLo("t")), m.Sym(abi.SymCodeHi("t"))
					blob := make([]byte, hi-lo)
					for i := range blob {
						blob[i] = m.Bus.Peek8(lo + uint16(i))
					}
					blob[addr-lo] = byte(want & 0xFF)
					blob[addr-lo+1] = byte(want >> 8)
					m.Bus.LoadBytes(lo, blob)
				}

				if got := runToExit(t, m); got != want {
					t.Fatalf("post-poke exit = %d, want %d (stale decode cache?)", got, want)
				}
			})
		}
	}
}

// TestDecodeCacheEquivalence runs the same program with the cache attached
// and with it globally disabled and checks exit code, cycles, instruction
// count and bus statistics are identical — the per-machine differential
// version of the torture campaign guardrail.
func TestDecodeCacheEquivalence(t *testing.T) {
	src := `
int acc;
int step(int x) { return x * 3 + 1; }
int main() {
    int i;
    for (i = 0; i < 500; i++) {
        acc = step(acc) % 9973;
    }
    return acc;
}
`
	type snapshot struct {
		exit          uint16
		cycles, insns uint64
		reads, writes uint64
		fetches       uint64
	}
	run := func(t *testing.T, mode Mode, cache bool) snapshot {
		t.Helper()
		p, err := CompileProgram("t", src, ProgramOptions{Mode: mode, EnableMPU: mode == ModeMPU,
			Engine: engine.Engine{NoDecodeCache: !cache}})
		if err != nil {
			t.Fatal(err)
		}
		m := p.Load()
		if cache && m.CPU.Program() == nil {
			t.Fatal("cache requested but not attached")
		}
		if !cache && m.CPU.Program() != nil {
			t.Fatal("cache attached despite NoDecodeCache")
		}
		exit := runToExit(t, m)
		r, w, f := m.Bus.Stats()
		return snapshot{exit, m.CPU.Cycles, m.CPU.Insns, r, w, f}
	}
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			with := run(t, mode, true)
			without := run(t, mode, false)
			if with != without {
				t.Errorf("cached run %+v != uncached run %+v", with, without)
			}
		})
	}
}
