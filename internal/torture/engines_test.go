package torture

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"amuletiso/internal/abi"
	"amuletiso/internal/cc"
	"amuletiso/internal/cpu"
	"amuletiso/internal/engine"
	"amuletiso/internal/mem"
	"amuletiso/internal/obs"
)

// engineFP is everything one standalone run exposes: exit state, cycle and
// instruction counts, bus statistics, MPU violation state, final global
// bytes, and (when collected) a hash of the complete access trace.
type engineFP struct {
	stop    cpu.StopReason
	fault   string
	exit    uint16
	cycles  uint64
	insns   uint64
	r, w, f uint64
	viol    uint64
	flags   uint16
	globals string
	trace   uint64
}

// fingerprintStandalone compiles src and runs it to completion on engine e.
// withTrace attaches a bus profiling hook hashing every access in order
// (which lawfully bypasses the certificate fast path and block execution, so
// trace comparisons exercise the interpreter layers while stats comparisons
// exercise every layer).
func fingerprintStandalone(t *testing.T, src string, mode cc.Mode, e engine.Engine, withTrace bool) engineFP {
	t.Helper()
	p, err := cc.CompileProgram(unitName, src, cc.ProgramOptions{
		Mode: mode, EnableMPU: mode == cc.ModeMPU, Engine: e,
	})
	if err != nil {
		t.Fatalf("%v/%v: %v\n%s", mode, e, err, src)
	}
	m := p.Load()
	h := fnv.New64a()
	if withTrace {
		m.Bus.OnAccess = func(a mem.Access) {
			fmt.Fprintf(h, "%d:%d:%d:%t;", a.Kind, a.Addr, a.Value, a.Byte)
		}
	}
	stop, fault := m.Run(defaultBudget)

	fp := engineFP{
		stop: stop, exit: m.CPU.ExitCode, cycles: m.CPU.Cycles, insns: m.CPU.Insns,
		viol: m.MPU.Violations(), flags: m.MPU.Flags(),
	}
	fp.r, fp.w, fp.f = m.Bus.Stats()
	if fault != nil {
		fp.fault = fault.Error()
	}
	if withTrace {
		fp.trace = h.Sum64()
	}
	var names []string
	for name := range p.Checked.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		g := p.Checked.Globals[name]
		addr := p.Image.MustSym(abi.SymGlobal(unitName, name))
		fmt.Fprintf(&sb, "%s=", name)
		for i := 0; i < g.Type.Size(); i++ {
			fmt.Fprintf(&sb, "%02x", m.Bus.Peek8(addr+uint16(i)))
		}
		sb.WriteString(";")
	}
	fp.globals = sb.String()
	return fp
}

// TestEngineEquivalenceBattery is the engine lockdown: generated torture
// programs — benign differential ones and fault-injecting adversarial ones —
// must be byte-identical in every engine.Matrix cell under every isolation
// mode: exit state, cycle counts, instruction counts, bus statistics, MPU
// violation state, final global bytes, and the complete access trace
// (compared across the certified cells; the certificate fast path is only
// taken when no profiler observes accesses, so traces cannot compare the
// certificate axis).
func TestEngineEquivalenceBattery(t *testing.T) {
	nDiff, nAdv := 20, 12
	if testing.Short() {
		nDiff, nAdv = 6, 4
	}
	type probe struct {
		name, src  string
		mode       cc.Mode
		ref, trace engineFP
	}
	var probes []probe
	build := func(kind string, n int, seedBase uint64) {
		for i := 0; i < n; i++ {
			restricted := i%4 == 1
			c := BuildCase(kind, caseSeed(seedBase, i), restricted)
			modes := diffModes(restricted)
			if kind == KindAdversarial {
				modes = advModes(restricted)
			}
			for _, mode := range modes {
				probes = append(probes, probe{
					name: fmt.Sprintf("%s case %d %v", kind, i, mode), src: c.Source, mode: mode,
					ref:   fingerprintStandalone(t, c.Source, mode, engine.Engine{}, false),
					trace: fingerprintStandalone(t, c.Source, mode, engine.Engine{}, true),
				})
			}
		}
	}
	build(KindDifferential, nDiff, 0x5EED)
	build(KindAdversarial, nAdv, 0xA77C)
	for _, e := range engine.Matrix[1:] {
		t.Run(e.String(), func(t *testing.T) {
			t.Parallel()
			for _, p := range probes {
				if fp := fingerprintStandalone(t, p.src, p.mode, e, false); fp != p.ref {
					t.Fatalf("%s diverged from the production engine\n  ref: %+v\n  got: %+v\n%s",
						p.name, p.ref, fp, p.src)
				}
				// Trace pass under the profiling hook: every certified cell
				// must produce the identical access stream. (A profiler
				// lawfully disables both the certificate fast path and block
				// execution, so this also proves the jit entry check defers
				// to the profiler.)
				if e.NoCert {
					continue
				}
				if fp := fingerprintStandalone(t, p.src, p.mode, e, true); fp != p.trace {
					t.Fatalf("%s: access traces diverged\n  ref: %+v\n  got: %+v\n%s",
						p.name, p.trace, fp, p.src)
				}
			}
		})
	}
}

// TestCampaignByteIdenticalAcrossEngines is the campaign-level guardrail
// behind the CI escape-hatch job: whole differential, adversarial and
// hosted campaigns serialize to the same bytes in every engine.Matrix cell
// and with observability armed or off, so every hatch stays byte-identical
// forever.
func TestCampaignByteIdenticalAcrossEngines(t *testing.T) {
	for _, kind := range []string{KindDifferential, KindAdversarial, KindHosted} {
		n := 40
		if kind == KindHosted {
			n = 15 // kernel-hosted cases are an order of magnitude slower
		}
		if testing.Short() {
			n = n/4 + 1 // keep the -race -short CI job cheap
		}
		report := func(t *testing.T, e engine.Engine) string {
			cfg := DefaultConfig(kind)
			cfg.Programs = n
			cfg.Engine = e
			rep, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		want := report(t, engine.Engine{})
		t.Run(kind, func(t *testing.T) {
			for _, e := range engine.Matrix[1:] {
				t.Run(e.String(), func(t *testing.T) {
					t.Parallel()
					if report(t, e) != want {
						t.Error("report differs from the production engine's")
					}
				})
			}
		})
		// The {obs, noobs} axis is process-global, so it runs serially once
		// the engine cells are done: campaign bytes must not depend on
		// whether flight recorders are armed or metrics enabled. Tracing
		// only touches kernel-hosted paths, so the production engine
		// suffices.
		obs.SetTracing(true)
		traced := report(t, engine.Engine{})
		obs.SetTracing(false)
		obs.SetMetrics(false)
		quiet := report(t, engine.Engine{})
		obs.SetMetrics(true)
		if traced != want || quiet != want {
			t.Errorf("%s: report differs with tracing armed (%v) or metrics off (%v)",
				kind, traced != want, quiet != want)
		}
	}
}

// TestCorpusReplayAcrossEngines replays every committed corpus case —
// including the branch-ladder and superblock reproducers — in every
// engine.Matrix cell, asserting identical serialized outcomes.
func TestCorpusReplayAcrossEngines(t *testing.T) {
	cases, err := LoadCorpus("testdata")
	if err != nil {
		t.Fatal(err)
	}
	outcome := func(t *testing.T, c *Case, e engine.Engine) string {
		b, err := json.Marshal(execute(c, e))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = outcome(t, c, engine.Engine{})
	}
	t.Run("engines", func(t *testing.T) {
		for _, e := range engine.Matrix[1:] {
			t.Run(e.String(), func(t *testing.T) {
				t.Parallel()
				for i, c := range cases {
					if got := outcome(t, c, e); got != want[i] {
						t.Errorf("corpus %s: outcome differs:\n  ref: %s\n  got: %s", c.Name, want[i], got)
					}
				}
			})
		}
	})
	// Tracing-armed replay: identical outcomes, and hosted cases
	// additionally run the flight-recorder second-witness check inside
	// executeHosted (a recorder/oracle disagreement fails the case).
	obs.SetTracing(true)
	defer obs.SetTracing(false)
	for i, c := range cases {
		if got := outcome(t, c, engine.Engine{}); got != want[i] {
			t.Errorf("corpus %s: outcome differs with tracing armed:\n  ref: %s\n  got: %s", c.Name, want[i], got)
		}
	}
}
