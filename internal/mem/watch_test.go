package mem

import "testing"

// TestWatchCode checks every write path — checked word/byte writes, loader
// pokes and bulk loads — reports exactly the bytes that landed inside a
// watched text range, clamped to it, and that data traffic stays silent.
func TestWatchCode(t *testing.T) {
	b := NewBus()
	var hits [][2]uint16
	b.WatchCode(NewCodeWatch([]CodeRange{{Lo: 0x4400, Hi: 0x4800}, {Lo: 0x5000, Hi: 0x5400}}),
		codeWriteFunc(func(lo, hi uint16) { hits = append(hits, [2]uint16{lo, hi}) }))

	take := func() [][2]uint16 {
		h := hits
		hits = nil
		return h
	}
	expect := func(step string, want ...[2]uint16) {
		t.Helper()
		got := take()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d notifications (%v), want %d (%v)", step, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: notification %d = %v, want %v", step, i, got[i], want[i])
			}
		}
	}

	b.Poke16(0x4400, 0x1234)
	expect("Poke16 in range", [2]uint16{0x4400, 0x4401})
	b.Poke8(0x47FF, 0xAA)
	expect("Poke8 at range end", [2]uint16{0x47FF, 0x47FF})
	b.Poke16(0x4800, 0x1234)
	expect("Poke16 just past range")
	b.Poke16(0x4C00, 0x1234)
	expect("Poke16 between ranges")
	if v := b.Write16(0x5002, 7); v != nil {
		t.Fatalf("Write16: %v", v)
	}
	expect("checked Write16 in range", [2]uint16{0x5002, 0x5003})
	if v := b.Write8(0x5001, 7); v != nil {
		t.Fatalf("Write8: %v", v)
	}
	expect("checked Write8 in range", [2]uint16{0x5001, 0x5001})
	if v := b.Write16(0x2000, 7); v != nil {
		t.Fatalf("Write16: %v", v)
	}
	expect("checked Write16 outside")

	// A bulk load straddling the gap clamps to each range separately.
	b.LoadBytes(0x47F0, make([]byte, 0x5010-0x47F0))
	expect("LoadBytes across both ranges",
		[2]uint16{0x47F0, 0x47FF}, [2]uint16{0x5000, 0x500F})

	// A load whose endpoints both land on unwatched pages must still report
	// the watched pages in the middle (regression: the page-bitmap fast path
	// once tested only the two endpoint pages).
	b.LoadBytes(0x43F0, make([]byte, 0x4A10-0x43F0))
	expect("LoadBytes surrounding a range", [2]uint16{0x4400, 0x47FF})

	// Clearing the watch silences everything.
	b.WatchCode(nil, nil)
	b.Poke16(0x4400, 0xBEEF)
	expect("after clear")
}

// codeWriteFunc adapts a function to CodeWriter.
type codeWriteFunc func(lo, hi uint16)

func (f codeWriteFunc) CodeWritten(lo, hi uint16) { f(lo, hi) }
