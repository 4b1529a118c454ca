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
	"amuletiso/internal/isa"
	"amuletiso/internal/mem"
	"amuletiso/internal/obs"
)

// engineCfg is one cell of the engine matrix: the production engine with
// any subset of the escape hatches flipped. Threading, the superblock JIT and
// the decode cache are build-time properties (they shape the predecode cache
// and the compiled block plan); certificates and COW device memory are
// run-time ones.
type engineCfg struct {
	name                                          string
	noThread, noCert, noJIT, noCOW, noDecodeCache bool
}

// engineMatrix is the default engine, each remaining hatch flipped alone,
// and the all-off oracle. Every hatch replaces exactly one layer with its
// oracle, so flipping it alone tests that layer; the oracle (live decode,
// per-word checks, flat memory) pins the whole stack at once. Live decode
// already implies switch dispatch and no JIT, so the oracle leaves those
// toggles alone. engineMatrix[0] is the production engine.
var engineMatrix = []engineCfg{
	{name: "default"},
	{name: "nothread", noThread: true},
	{name: "nocert", noCert: true},
	{name: "nojit", noJIT: true},
	{name: "nocow", noCOW: true},
	{name: "nodecodecache", noDecodeCache: true},
	{name: "oracle", noDecodeCache: true, noCert: true, noCOW: true},
}

// apply flips the process-global engine toggles to this cell.
func (c engineCfg) apply() {
	isa.SetThreading(!c.noThread)
	mem.SetExecCerts(!c.noCert)
	isa.SetJIT(!c.noJIT)
	mem.SetCOW(!c.noCOW)
	cpu.SetDecodeCache(!c.noDecodeCache)
}

// resetEngines restores the production configuration.
func resetEngines() { engineMatrix[0].apply() }

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

// fingerprintStandalone compiles src under one engine configuration and runs
// it to completion. withTrace attaches a bus profiling hook hashing every
// access in order (which lawfully bypasses the certificate fast path and
// block execution, so trace comparisons exercise the interpreter layers while
// stats comparisons exercise every layer).
func fingerprintStandalone(t *testing.T, src string, mode cc.Mode, cfg engineCfg, withTrace bool) engineFP {
	t.Helper()
	defer resetEngines()
	cfg.apply()

	p, err := cc.CompileProgram(unitName, src, cc.ProgramOptions{
		Mode: mode, EnableMPU: mode == cc.ModeMPU,
	})
	if err != nil {
		t.Fatalf("%v/%s: %v\n%s", mode, cfg.name, err, src)
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
// must be byte-identical in every engineMatrix cell under every isolation
// mode: exit state, cycle counts, instruction counts, bus statistics, MPU
// violation state, final global bytes, and the complete access trace
// (compared across the certified cells; the certificate fast path is only
// taken when no profiler observes accesses, so traces cannot compare the
// certificate axis).
func TestEngineEquivalenceBattery(t *testing.T) {
	defer resetEngines()
	nDiff, nAdv := 20, 12
	if testing.Short() {
		nDiff, nAdv = 6, 4
	}
	run := func(kind string, n int, seedBase uint64) {
		for i := 0; i < n; i++ {
			restricted := i%4 == 1
			c := BuildCase(kind, caseSeed(seedBase, i), restricted)
			modes := diffModes(restricted)
			if kind == KindAdversarial {
				modes = advModes(restricted)
			}
			for _, mode := range modes {
				var ref engineFP
				for j, cfg := range engineMatrix {
					fp := fingerprintStandalone(t, c.Source, mode, cfg, false)
					if j == 0 {
						ref = fp
						continue
					}
					if fp != ref {
						t.Fatalf("%s case %d %v: %s diverged from %s\n  ref: %+v\n  got: %+v\n%s",
							kind, i, mode, cfg.name, engineMatrix[0].name, ref, fp, c.Source)
					}
				}
				// Trace pass under the profiling hook: every certified cell
				// must produce the identical access stream. (A profiler
				// lawfully disables both the certificate fast path and block
				// execution, so this also proves the jit entry check defers
				// to the profiler.)
				ref = fingerprintStandalone(t, c.Source, mode, engineMatrix[0], true)
				for j, cfg := range engineMatrix {
					if j == 0 || cfg.noCert {
						continue
					}
					b := fingerprintStandalone(t, c.Source, mode, cfg, true)
					if ref != b {
						t.Fatalf("%s case %d %v: access traces diverged\n  %s: %+v\n  %s: %+v\n%s",
							kind, i, mode, engineMatrix[0].name, ref, cfg.name, b, c.Source)
					}
				}
			}
		}
	}
	run(KindDifferential, nDiff, 0x5EED)
	run(KindAdversarial, nAdv, 0xA77C)
}

// TestCampaignByteIdenticalAcrossEngines is the campaign-level guardrail
// behind the CI escape-hatch legs: whole differential, adversarial and
// hosted campaigns serialize to the same bytes in every engineMatrix cell —
// each hatch alone and the live-decode oracle — and with observability armed
// or off, so every hatch stays byte-identical forever.
func TestCampaignByteIdenticalAcrossEngines(t *testing.T) {
	defer resetEngines()
	for _, kind := range []string{KindDifferential, KindAdversarial, KindHosted} {
		n := 40
		if kind == KindHosted {
			n = 15 // kernel-hosted cases are an order of magnitude slower
		}
		if testing.Short() {
			n = n/4 + 1 // keep the -race -short CI job cheap
		}
		var ref string
		check := func(name string) {
			cfg := DefaultConfig(kind)
			cfg.Programs = n
			rep, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if ref == "" {
				ref = string(b)
				return
			}
			if string(b) != ref {
				t.Errorf("%s: %s report differs from %s", kind, name, engineMatrix[0].name)
			}
		}
		for _, cfg := range engineMatrix {
			cfg.apply()
			check(cfg.name)
		}
		resetEngines()
		// The {obs, noobs} axis: campaign bytes must not depend on whether
		// flight recorders are armed or metrics enabled. Tracing only touches
		// kernel-hosted paths, so the production engine cell suffices.
		obs.SetTracing(true)
		check("obs")
		obs.SetTracing(false)
		obs.SetMetrics(false)
		check("noobs")
		obs.SetMetrics(true)
	}
}

// TestCorpusReplayAcrossEngines replays every committed corpus case —
// including the branch-ladder and superblock reproducers — in every
// engineMatrix cell, asserting identical serialized outcomes.
func TestCorpusReplayAcrossEngines(t *testing.T) {
	defer resetEngines()
	cases, err := LoadCorpus("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		var ref string
		replay := func(name string) {
			out := Execute(c)
			b, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			if ref == "" {
				ref = string(b)
				return
			}
			if string(b) != ref {
				t.Errorf("corpus %s: outcome under %s differs:\n  ref: %s\n  got: %s",
					c.Name, name, ref, b)
			}
		}
		for _, cfg := range engineMatrix {
			cfg.apply()
			replay(cfg.name)
		}
		resetEngines()
		// Tracing-armed replay: identical outcomes, and hosted cases
		// additionally run the flight-recorder second-witness check inside
		// executeHosted (a recorder/oracle disagreement fails the case).
		obs.SetTracing(true)
		replay("obs")
		obs.SetTracing(false)
	}
}
