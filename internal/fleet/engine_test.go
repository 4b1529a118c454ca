package fleet

import (
	"context"
	"testing"

	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/engine"
	"amuletiso/internal/isa"
	"amuletiso/internal/obs"
)

// engineSignature is what one engine leaves behind on a fixed fleet run:
// the deltas of the process-wide counters the execution layers publish
// (instructions retired per tier, superblocks compiled, COW pages dirtied
// and recycled), the report's retired total, and the bus of one more kernel
// booted from the run's template (word writes, writes off the data fast
// path, the predecoded program attached).
type engineSignature struct {
	interp, generic, specialized uint64
	blocks                       uint64
	dirtied, recycled            uint64

	insns          uint64
	writes, slow   uint64
	attached, text *isa.Program // and the firmware's own
}

// engineCounters reads the counters engineSignature takes deltas of.
func engineCounters() [6]uint64 {
	c := func(name string) uint64 { return obs.Default.Lookup(name).Value() }
	tiers := obs.Default.LookupVec(obs.MetricInstrRetired)
	return [6]uint64{
		tiers.Value("interp"), tiers.Value("jit_generic"), tiers.Value("jit_specialized"),
		c(obs.MetricJITBlocksCompiled), c(obs.MetricPagesDirtied), c(obs.MetricPagesRecycled),
	}
}

// signatureOf runs sc on e at one worker and returns its signature.
func signatureOf(t *testing.T, sc Scenario, e engine.Engine) engineSignature {
	t.Helper()
	sc.Engine = e
	r := &Runner{Workers: 1}
	before := engineCounters()
	rep, err := r.Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("%v: %v", e, err)
	}
	after := engineCounters()
	var d [6]uint64
	for i := range d {
		d[i] = after[i] - before[i]
	}
	s := engineSignature{
		interp: d[0], generic: d[1], specialized: d[2],
		blocks: d[3], dirtied: d[4], recycled: d[5],
	}
	for _, dev := range rep.PerDevice {
		s.insns += dev.Insns
	}

	tmpl, err := r.template(&sc)
	if err != nil {
		t.Fatal(err)
	}
	k := tmpl.NewKernelArena(DeviceSeed(sc.Seed, 0), r.pageArena())
	k.RunUntil(sc.DurationMS)
	_, s.writes, _ = k.Bus.Stats()
	s.slow = k.Bus.SlowWrites()
	s.attached, s.text = k.CPU.Program(), tmpl.Firmware().Text
	k.Release()
	return s
}

// TestEngineReachesMachine checks, for every engine.Matrix cell, that each
// execution layer the engine selects is the one that ran. Reports are
// byte-identical under every engine, so a decode cache that stops
// attaching, a JIT plan that never runs, a certifier the bus cannot see or
// a template that boots flat changes no report byte; each does change these
// exact, host-independent counts.
//
// The production engine is held to floors and ceilings, so JIT work may
// move instructions between tiers without touching this test. Every hatch
// is held to its oracle pattern: one that routes around the JIT retires
// every instruction in the interpreter, and one that leaves a layer alone
// leaves that layer's counts exactly as the production engine has them.
func TestEngineReachesMachine(t *testing.T) {
	sc := Scenario{
		Name:          "engine",
		Apps:          apps.Suite(),
		Mode:          cc.ModeMPU,
		DurationMS:    5_000,
		Devices:       4,
		Seed:          1,
		ButtonEveryMS: 3_000,
	}
	prod := signatureOf(t, sc, engine.Engine{})
	if prod.interp+prod.generic+prod.specialized != prod.insns {
		t.Fatalf("production: tiers retired %d+%d+%d, devices retired %d",
			prod.interp, prod.generic, prod.specialized, prod.insns)
	}
	if prod.blocks == 0 {
		t.Error("production: the JIT compiled no blocks")
	}
	if prod.interp*20 > prod.insns {
		t.Errorf("production: interpreter retired %d of %d instructions, want <= 5%%", prod.interp, prod.insns)
	}
	if prod.specialized*2 <= prod.insns {
		t.Errorf("production: specialized JIT steps retired %d of %d instructions, want a majority",
			prod.specialized, prod.insns)
	}
	if prod.dirtied == 0 || prod.recycled == 0 {
		t.Errorf("production: %d COW pages dirtied, %d recycled; want both > 0", prod.dirtied, prod.recycled)
	}
	if prod.slow > prod.writes || 3*(prod.writes-prod.slow) < prod.writes {
		t.Errorf("production: %d of %d word writes left the data fast path, want <= 2/3", prod.slow, prod.writes)
	}

	for _, e := range engine.Matrix[1:] {
		t.Run(e.String(), func(t *testing.T) {
			got := signatureOf(t, sc, e)
			if got.insns != prod.insns {
				t.Fatalf("devices retired %d instructions, production %d", got.insns, prod.insns)
			}
			if e.NoDecodeCache || e.NoJIT || e.NoCert {
				if got.interp != got.insns || got.generic != 0 || got.specialized != 0 {
					t.Errorf("retired %d interp, %d jit generic, %d jit specialized; want all %d in the interpreter",
						got.interp, got.generic, got.specialized, got.insns)
				}
			} else if got.interp != prod.interp || got.generic != prod.generic ||
				got.specialized != prod.specialized || got.blocks != prod.blocks {
				t.Errorf("retired %d/%d/%d (interp/generic/specialized) from %d blocks; production %d/%d/%d from %d",
					got.interp, got.generic, got.specialized, got.blocks,
					prod.interp, prod.generic, prod.specialized, prod.blocks)
			}
			if (e.NoDecodeCache || e.NoJIT) && got.blocks != 0 {
				t.Errorf("compiled %d JIT blocks, want none", got.blocks)
			}

			if e.NoCOW {
				if got.dirtied != 0 || got.recycled != 0 {
					t.Errorf("%d COW pages dirtied, %d recycled on flat memory", got.dirtied, got.recycled)
				}
			} else if got.dirtied != prod.dirtied || got.recycled != prod.recycled {
				t.Errorf("%d COW pages dirtied, %d recycled; production %d, %d",
					got.dirtied, got.recycled, prod.dirtied, prod.recycled)
			}

			if got.writes != prod.writes {
				t.Fatalf("kernel made %d word writes, production %d", got.writes, prod.writes)
			}
			if e.NoCert {
				if got.slow < got.writes {
					t.Errorf("%d of %d word writes left the data fast path, want every one checked", got.slow, got.writes)
				}
			} else if got.slow != prod.slow {
				t.Errorf("%d word writes left the data fast path, production %d", got.slow, prod.slow)
			}

			want := got.text
			if e.NoThread {
				want = want.Unthreaded()
			}
			if e.NoDecodeCache {
				want = nil
			}
			if got.attached != want {
				t.Error("wrong predecoded program attached")
			}
		})
	}
}
