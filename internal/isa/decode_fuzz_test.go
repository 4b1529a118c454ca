package isa

import "testing"

// FuzzDecode drives the decoder — the front end of the live-decode oracle
// every engine is compared against — with arbitrary instruction words w0
// (opcode) and w1, w2 (extension words, consumed only when the opcode asks
// for them). For every input:
//
//   - Decode never panics;
//   - when Decode succeeds, Encode accepts the instruction and decoding the
//     encoding returns the same Instr (constant-generator forms may
//     re-encode shorter, so the Instr is compared, not the words);
//   - Predecode over the same words caches the same In, Size, Cost and
//     HandlerFor binding at that address, and caches nothing when Decode
//     fails.
func FuzzDecode(f *testing.F) {
	for _, in := range roundTripInstrs {
		ws := append(MustEncode(in), 0, 0)
		f.Add(ws[0], ws[1], ws[2])
	}
	for _, w := range illegalWords {
		f.Add(w, uint16(0), uint16(0))
	}
	f.Fuzz(func(t *testing.T, w0, w1, w2 uint16) {
		words := sliceReader{w0, w1, w2}
		in, size, err := Decode(words, 0)

		p := Predecode(words, []TextRange{{Lo: 0, Hi: 6}})
		e := p.At(0)
		if err != nil {
			if e != nil {
				t.Fatalf("%04X %04X %04X: Decode failed (%v) but Predecode cached %+v", w0, w1, w2, err, *e)
			}
			return
		}
		if size < 2 || size > 6 || size%2 != 0 {
			t.Fatalf("%04X %04X %04X: Decode size %d", w0, w1, w2, size)
		}

		enc, eerr := Encode(in)
		if eerr != nil {
			t.Fatalf("%04X %04X %04X: decoded %v does not re-encode: %v", w0, w1, w2, in, eerr)
		}
		if len(enc) > int(size/2) {
			t.Fatalf("%04X %04X %04X: %v re-encodes to %d words, decoded from %d bytes", w0, w1, w2, in, len(enc), size)
		}
		again, asize, aerr := Decode(sliceReader(enc), 0)
		if aerr != nil || again != in || int(asize) != len(enc)*2 {
			t.Fatalf("%04X %04X %04X: Decode(Encode(%v)) = %v, %d, %v (encoded %04X)", w0, w1, w2, in, again, asize, aerr, enc)
		}

		if e == nil {
			t.Fatalf("%04X %04X %04X: Decode succeeded (%v) but Predecode cached nothing", w0, w1, w2, in)
		}
		if e.In != in || e.Size != size || e.Cost != uint16(Cycles(in)) {
			t.Fatalf("%04X %04X %04X: Predecode slot {%v size %d cost %d}, Decode {%v size %d cost %d}",
				w0, w1, w2, e.In, e.Size, e.Cost, in, size, Cycles(in))
		}
		if want := HandlerFor(in); e.H != want {
			t.Fatalf("%04X %04X %04X: Predecode bound handler %d, HandlerFor %d", w0, w1, w2, e.H, want)
		}
	})
}
