package torture

import (
	"fmt"
	"sort"
	"strings"

	"amuletiso/internal/abi"
	"amuletiso/internal/cc"
	"amuletiso/internal/cpu"
	"amuletiso/internal/engine"
)

// unitName is the compilation-unit name every standalone torture program
// gets; boundary and global symbols derive from it.
const unitName = "t"

// defaultBudget is the per-run cycle budget for standalone executions.
// Generated programs are loop-bounded and finish orders of magnitude below
// it; hitting it is a failure (a termination bug in the generator).
const defaultBudget = 20_000_000

// Case is one serializable torture case: the generated source plus what a
// replay needs. Cases are self-contained — corpus files under testdata/ are
// exactly this struct in JSON.
type Case struct {
	Name       string  `json:"name,omitempty"`
	Kind       string  `json:"kind"` // differential | adversarial | hosted
	Seed       uint64  `json:"seed"`
	Restricted bool    `json:"restricted,omitempty"`
	Source     string  `json:"source"`
	Attack     *attack `json:"attack,omitempty"`
	Note       string  `json:"note,omitempty"`
}

// Case kinds.
const (
	KindDifferential = "differential"
	KindAdversarial  = "adversarial"
	KindHosted       = "hosted"
	KindBrownout     = "brownout"
)

// Outcome is the result of executing one case.
type Outcome struct {
	Index int    `json:"index"`
	Seed  uint64 `json:"seed"`
	Kind  string `json:"kind"`
	Pass  bool   `json:"pass"`
	// Category is a stable failure class ("exit-mismatch", "compile-error",
	// ...); the shrinker only accepts reductions that preserve it.
	Category string `json:"category,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Expected and Observed attribute the catching layer per mode
	// (adversarial and hosted cases).
	Expected map[string]Layer `json:"expected,omitempty"`
	Observed map[string]Layer `json:"observed,omitempty"`
	// ModeCycles records per-mode execution cost (differential cases), the
	// raw material for overhead accounting.
	ModeCycles map[string]uint64 `json:"modeCycles,omitempty"`
	// Source carries the (shrunk) reproducer for failing cases, with the
	// attack metadata and dialect needed to replay it.
	Source     string  `json:"source,omitempty"`
	Attack     *attack `json:"attack,omitempty"`
	Restricted bool    `json:"restricted,omitempty"`
}

func (o *Outcome) fail(category, reason string) {
	o.Pass = false
	if o.Category == "" {
		o.Category = category
		o.Reason = reason
	}
}

// Execute runs a case under its kind's rules on the production engine.
func Execute(c *Case) *Outcome { return execute(c, engine.Engine{}) }

// execute runs a case under its kind's rules on engine e.
func execute(c *Case, e engine.Engine) *Outcome {
	out := &Outcome{Seed: c.Seed, Kind: c.Kind, Pass: true}
	switch c.Kind {
	case KindDifferential:
		executeDifferential(c, e, out)
	case KindAdversarial:
		executeAdversarial(c, e, out)
	case KindHosted:
		executeHosted(c, e, out)
	case KindBrownout:
		executeBrownout(c, e, out)
	default:
		out.fail("bad-kind", fmt.Sprintf("unknown case kind %q", c.Kind))
	}
	return out
}

// runResult is one standalone execution.
type runResult struct {
	stop    cpu.StopReason
	fault   *cpu.Fault
	exit    uint16
	cycles  uint64
	mpuViol uint64
	globals map[string]string // name -> hex bytes of final value
	layout  appLayout
	symbols map[string]uint16
}

// diffModes returns the isolation models a differential case compares:
// the unprotected baseline against every isolated model the dialect admits.
func diffModes(restricted bool) []cc.Mode {
	if restricted {
		return []cc.Mode{cc.ModeNoIsolation, cc.ModeFeatureLimited, cc.ModeMPU, cc.ModeSoftwareOnly}
	}
	return []cc.Mode{cc.ModeNoIsolation, cc.ModeMPU, cc.ModeSoftwareOnly}
}

// advModes returns the isolated models an adversarial case must be trapped
// under.
func advModes(restricted bool) []cc.Mode {
	if restricted {
		return []cc.Mode{cc.ModeFeatureLimited, cc.ModeMPU, cc.ModeSoftwareOnly}
	}
	return []cc.Mode{cc.ModeMPU, cc.ModeSoftwareOnly}
}

// runStandalone compiles the source as a standalone program under one mode
// and runs it to completion on engine e.
func runStandalone(src string, mode cc.Mode, e engine.Engine) (*runResult, error) {
	p, err := cc.CompileProgram(unitName, src, cc.ProgramOptions{
		Mode:      mode,
		EnableMPU: mode == cc.ModeMPU,
		Engine:    e,
	})
	if err != nil {
		return nil, err
	}
	m := p.Load()
	stop, fault := m.Run(defaultBudget)

	res := &runResult{
		stop:    stop,
		fault:   fault,
		exit:    m.CPU.ExitCode,
		cycles:  m.CPU.Cycles,
		mpuViol: m.MPU.Violations(),
		globals: map[string]string{},
		symbols: map[string]uint16{},
		layout: appLayout{
			dataLo:   p.Image.MustSym(abi.SymDataLo(unitName)),
			dataHi:   p.Image.MustSym(abi.SymDataHi(unitName)),
			osCodeLo: p.Image.MustSym(abi.SymOSCodeLo),
		},
	}
	// Snapshot every global's final bytes for cross-mode state comparison.
	// Pointer-typed globals are excluded: they hold addresses, and the
	// memory layout legitimately shifts between modes.
	for name, g := range p.Checked.Globals {
		addr := p.Image.MustSym(abi.SymGlobal(unitName, name))
		res.symbols[name] = addr
		if g.Type.Kind == cc.TPtr || g.Type.Kind == cc.TFuncPtr {
			continue
		}
		size := g.Type.Size()
		var sb strings.Builder
		for i := 0; i < size; i++ {
			fmt.Fprintf(&sb, "%02x", m.Bus.Peek8(addr+uint16(i)))
		}
		res.globals[name] = sb.String()
	}
	return res, nil
}

// executeDifferential asserts mode equivalence: the same program, compiled
// under the unprotected baseline and under every isolated model, must halt
// with the same exit code and identical global state, with the baseline
// never costing more cycles than an instrumented build — the paper's
// "isolation preserves semantics, costs only overhead" claim.
func executeDifferential(c *Case, e engine.Engine, out *Outcome) {
	out.ModeCycles = map[string]uint64{}
	var base *runResult
	for _, mode := range diffModes(c.Restricted) {
		res, err := runStandalone(c.Source, mode, e)
		if err != nil {
			out.fail("compile-error", fmt.Sprintf("%v: %v", mode, err))
			return
		}
		out.ModeCycles[mode.String()] = res.cycles
		if res.stop != cpu.StopHalt || res.fault != nil {
			out.fail("runtime-fault", fmt.Sprintf("%v: stop=%v fault=%v", mode, res.stop, res.fault))
			return
		}
		if mode == cc.ModeMPU && res.mpuViol != 0 {
			out.fail("mpu-violation",
				fmt.Sprintf("well-formed program latched %d MPU violations", res.mpuViol))
			return
		}
		if base == nil {
			base = res // NoIsolation runs first
			continue
		}
		if res.exit != base.exit {
			out.fail("exit-mismatch",
				fmt.Sprintf("%v: exit 0x%04X, baseline 0x%04X", mode, res.exit, base.exit))
			return
		}
		if diff := diffGlobals(base.globals, res.globals); diff != "" {
			out.fail("state-mismatch", fmt.Sprintf("%v: %s", mode, diff))
			return
		}
		if res.cycles < base.cycles {
			out.fail("overhead-inversion",
				fmt.Sprintf("%v ran in %d cycles, baseline %d", mode, res.cycles, base.cycles))
			return
		}
	}
}

// diffGlobals reports the first global whose final bytes differ.
func diffGlobals(want, got map[string]string) string {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if want[n] != got[n] {
			return fmt.Sprintf("global %s = %s, baseline %s", n, got[n], want[n])
		}
	}
	return ""
}

// classifyStandalone attributes a standalone run's ending to a layer.
func classifyStandalone(res *runResult) Layer {
	switch {
	case res.stop == cpu.StopHalt && res.exit == cc.FaultExitCode:
		return LayerCompiler
	case res.stop == cpu.StopFault && res.fault != nil && res.fault.Violation != nil &&
		strings.HasPrefix(res.fault.Violation.Rule, "MPU"):
		return LayerMPU
	case res.stop == cpu.StopFault:
		return LayerCPU
	case res.stop == cpu.StopHalt:
		return LayerNone
	case res.stop == cpu.StopBudget:
		return LayerWatchdog
	}
	return LayerNone
}

// executeAdversarial asserts that each isolated mode disposes of the
// injected violation exactly as the oracle predicts — trapped by the
// attributed layer, or (for explicit probes of the modeled hardware holes)
// demonstrably escaping.
func executeAdversarial(c *Case, e engine.Engine, out *Outcome) {
	if c.Attack == nil {
		out.fail("bad-case", "adversarial case without attack metadata")
		return
	}
	out.Expected = map[string]Layer{}
	out.Observed = map[string]Layer{}
	for _, mode := range advModes(c.Restricted) {
		res, err := runStandalone(c.Source, mode, e)
		if err != nil {
			out.fail("compile-error", fmt.Sprintf("%v: %v", mode, err))
			return
		}
		arrAddr := res.symbols[c.Attack.Array]
		expected := c.Attack.predict(mode.String(), res.layout, arrAddr)
		observed := classifyStandalone(res)
		out.Expected[mode.String()] = expected
		out.Observed[mode.String()] = observed
		if expected == LayerVacuous {
			continue // effective address landed inside the app's own region
		}
		if observed != expected {
			out.fail("adversarial-mismatch",
				fmt.Sprintf("%v: %s expected %s, observed %s (stop=%v fault=%v)",
					mode, c.Attack, expected, observed, res.stop, res.fault))
			return
		}
	}
}
