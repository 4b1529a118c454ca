package torture

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"amuletiso/internal/engine"
	"amuletiso/internal/fleet"
	"amuletiso/internal/obs"
)

// mCases counts torture cases executed across all campaigns in the process —
// the series amulettorture's progress line and /metrics endpoint report.
var mCases = obs.Default.Counter(obs.MetricTortureCase,
	"Torture cases executed across all campaigns.")

// Config shapes one torture campaign.
type Config struct {
	// Kind selects the case family: differential, adversarial or hosted.
	Kind string
	// Programs is how many cases to run.
	Programs int
	// First offsets the case indices, sharding one campaign across machines
	// exactly like fleet.Scenario.FirstDevice: per-case seeds depend only on
	// the global index, so disjoint shards reproduce the union run.
	First int
	// Seed is the campaign seed; per-case seeds derive from it.
	Seed uint64
	// Workers bounds the fan-out pool (0 = GOMAXPROCS). The report is
	// byte-identical at any setting.
	Workers int
	// RestrictedEvery marks every Nth case restricted-dialect (0 = never).
	// Hosted campaigns ignore it.
	RestrictedEvery int
	// Shrink minimizes failing cases to their smallest reproducer before
	// reporting them.
	Shrink bool
	// Engine selects the execution layers every case runs on. Reports are
	// byte-identical under every engine.
	Engine engine.Engine
}

// DefaultConfig returns the canonical campaign configuration for a kind.
func DefaultConfig(kind string) Config {
	cfg := Config{Kind: kind, Programs: 1000, Seed: 1, Shrink: true}
	switch kind {
	case KindDifferential:
		cfg.RestrictedEvery = 4
	case KindAdversarial:
		cfg.RestrictedEvery = 5
	}
	return cfg
}

// Validate rejects configurations Run cannot execute: a non-positive program
// count, a negative first index or an unknown kind. A service accepting
// campaigns calls it at submit, as Run does before it starts.
func (cfg Config) Validate() error {
	if cfg.Programs <= 0 {
		return fmt.Errorf("torture: campaign needs a positive program count (got %d)", cfg.Programs)
	}
	if cfg.First < 0 {
		return fmt.Errorf("torture: negative first index %d", cfg.First)
	}
	switch cfg.Kind {
	case KindDifferential, KindAdversarial, KindHosted, KindBrownout:
		return nil
	}
	return fmt.Errorf("torture: unknown campaign kind %q", cfg.Kind)
}

// Report aggregates a campaign. Every field is a pure function of the
// Config, so serialized reports are byte-identical across runs, machines
// and worker counts — campaigns double as regression oracles.
type Report struct {
	Kind     string `json:"kind"`
	Seed     uint64 `json:"seed"`
	Programs int    `json:"programs"`
	First    int    `json:"first,omitempty"`

	Passed int `json:"passed"`
	Failed int `json:"failed"`

	// Differential aggregates: total simulated cycles per mode and the
	// relative overhead each isolated model paid over the unprotected
	// baseline — the same quantity as the paper's Figure 3, measured over
	// generated programs instead of hand-picked benchmarks. BaselineCycles
	// pairs each isolated mode with the NoIsolation cycles of exactly the
	// cases that ran it (restricted-dialect cases run more modes than full
	// ones, so the subsets differ).
	ModeCycles     map[string]uint64  `json:"modeCycles,omitempty"`
	BaselineCycles map[string]uint64  `json:"baselineCycles,omitempty"`
	OverheadPct    map[string]float64 `json:"overheadPct,omitempty"`

	// Adversarial aggregates, over (case, mode) pairs.
	Injected        int            `json:"injected,omitempty"` // violations expected to trap
	Trapped         int            `json:"trapped,omitempty"`  // violations actually trapped
	TrappedByLayer  map[string]int `json:"trappedByLayer,omitempty"`
	ExpectedEscapes int            `json:"expectedEscapes,omitempty"` // probe cases showing the modeled MPU holes
	Vacuous         int            `json:"vacuous,omitempty"`         // effective address landed in-region

	Failures []*Outcome `json:"failures,omitempty"`
}

// Run executes a campaign, fanning the cases out over the fleet worker
// pool. Each case is generated, executed and (on failure, with Shrink set)
// minimized independently; results land in per-index slots, so aggregation
// is order-independent.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	results := make([]*Outcome, cfg.Programs)
	err := fleet.ForEach(ctx, cfg.Programs, cfg.Workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		gi := cfg.First + i
		restricted := cfg.Kind != KindHosted && cfg.Kind != KindBrownout &&
			cfg.RestrictedEvery > 0 && gi%cfg.RestrictedEvery == 0
		c, p := buildCaseProg(cfg.Kind, caseSeed(cfg.Seed, gi), restricted)
		out := execute(c, cfg.Engine)
		mCases.Inc()
		out.Index = gi
		if !out.Pass {
			out.Source = c.Source
			out.Attack = c.Attack
			out.Restricted = c.Restricted
			if cfg.Shrink && p != nil {
				out.Source = shrinkFailure(p, c, out.Category, cfg.Engine)
			}
		}
		results[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{Kind: cfg.Kind, Seed: cfg.Seed, Programs: cfg.Programs, First: cfg.First}
	for _, out := range results {
		rep.fold(out)
	}
	for mode, baseTotal := range rep.BaselineCycles {
		if baseTotal > 0 {
			rep.OverheadPct[mode] = 100 *
				(float64(rep.ModeCycles[mode]) - float64(baseTotal)) / float64(baseTotal)
		}
	}
	return rep, nil
}

// fold accumulates one case outcome.
func (r *Report) fold(out *Outcome) {
	if out.Pass {
		r.Passed++
	} else {
		r.Failed++
		r.Failures = append(r.Failures, out)
	}
	// Cycle aggregates only fold in passing cases: a failing case stops at
	// its first bad mode, and its truncated cycles would skew the overhead
	// figures exactly when someone is reading them to diagnose the failure.
	if out.Pass && len(out.ModeCycles) > 0 {
		if r.ModeCycles == nil {
			r.ModeCycles = make(map[string]uint64)
			r.BaselineCycles = make(map[string]uint64)
			r.OverheadPct = make(map[string]float64)
		}
		base := out.ModeCycles["NoIsolation"]
		for mode, cycles := range out.ModeCycles {
			r.ModeCycles[mode] += cycles
			if mode != "NoIsolation" {
				r.BaselineCycles[mode] += base
			}
		}
	}
	modes := make([]string, 0, len(out.Expected))
	for m := range out.Expected {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	for _, m := range modes {
		expected, observed := out.Expected[m], out.Observed[m]
		switch expected {
		case LayerVacuous:
			r.Vacuous++
		case LayerNone:
			if observed == LayerNone {
				r.ExpectedEscapes++
			}
		default:
			r.Injected++
			if observed == expected {
				r.Trapped++
				if r.TrappedByLayer == nil {
					r.TrappedByLayer = make(map[string]int)
				}
				r.TrappedByLayer[m+"/"+string(observed)]++
			}
		}
	}
}

// Merge folds an adjacent shard of the same campaign into r, giving torture
// reports the same shard-union treatment fleet reports have: a campaign
// split into program ranges — run anywhere, in any order, interrupted and
// resumed — merges into exactly the union run's report, byte for byte. The
// shards must agree on campaign identity (kind, seed) and their program
// ranges must tile one contiguous range.
func (r *Report) Merge(other *Report) error {
	if r.Kind != other.Kind || r.Seed != other.Seed {
		return fmt.Errorf("torture: cannot merge reports of different campaigns (%s/%d vs %s/%d)",
			r.Kind, r.Seed, other.Kind, other.Seed)
	}
	switch {
	case r.First+r.Programs == other.First:
	case other.First+other.Programs == r.First:
		r.First = other.First
	default:
		return fmt.Errorf("torture: cannot merge non-adjacent shards [%d,%d) and [%d,%d)",
			r.First, r.First+r.Programs, other.First, other.First+other.Programs)
	}
	r.Programs += other.Programs
	r.Passed += other.Passed
	r.Failed += other.Failed
	addCounts(&r.ModeCycles, other.ModeCycles)
	addCounts(&r.BaselineCycles, other.BaselineCycles)
	r.Injected += other.Injected
	r.Trapped += other.Trapped
	addCounts(&r.TrappedByLayer, other.TrappedByLayer)
	r.ExpectedEscapes += other.ExpectedEscapes
	r.Vacuous += other.Vacuous
	r.Failures = append(r.Failures, other.Failures...)
	sort.Slice(r.Failures, func(i, j int) bool { return r.Failures[i].Index < r.Failures[j].Index })
	// Overheads are ratios of the merged totals, recomputed exactly as Run
	// computes them for a one-shot campaign.
	r.OverheadPct = nil
	if r.ModeCycles != nil {
		r.OverheadPct = make(map[string]float64)
		for mode, baseTotal := range r.BaselineCycles {
			if baseTotal > 0 {
				r.OverheadPct[mode] = 100 *
					(float64(r.ModeCycles[mode]) - float64(baseTotal)) / float64(baseTotal)
			}
		}
	}
	return nil
}

// addCounts folds src's counters into *dst, allocating it on first use so a
// merge of two count-free shards stays count-free.
func addCounts[V int | uint64](dst *map[string]V, src map[string]V) {
	if len(src) == 0 {
		return
	}
	if *dst == nil {
		*dst = make(map[string]V, len(src))
	}
	for k, v := range src {
		(*dst)[k] += v
	}
}

// Summary renders the report for humans.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s campaign: %d programs (seed %d): %d passed, %d failed\n",
		r.Kind, r.Programs, r.Seed, r.Passed, r.Failed)
	if len(r.ModeCycles) > 0 {
		modes := sortedKeys(r.ModeCycles)
		for _, m := range modes {
			fmt.Fprintf(&sb, "  %-15s %12d cycles", m, r.ModeCycles[m])
			if pct, ok := r.OverheadPct[m]; ok {
				fmt.Fprintf(&sb, "  (+%.2f%%)", pct)
			}
			sb.WriteString("\n")
		}
	}
	if r.Injected > 0 {
		fmt.Fprintf(&sb, "  injected violations trapped: %d/%d (%.1f%%)\n",
			r.Trapped, r.Injected, 100*float64(r.Trapped)/float64(r.Injected))
		for _, k := range sortedKeys(r.TrappedByLayer) {
			fmt.Fprintf(&sb, "    %6d× %s\n", r.TrappedByLayer[k], k)
		}
		if r.ExpectedEscapes > 0 {
			fmt.Fprintf(&sb, "  documented-hole probes escaping as modeled: %d\n", r.ExpectedEscapes)
		}
		if r.Vacuous > 0 {
			fmt.Fprintf(&sb, "  vacuous (effective address stayed in-region): %d\n", r.Vacuous)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&sb, "  FAIL case %d seed %d [%s]: %s\n", f.Index, f.Seed, f.Category, f.Reason)
	}
	return sb.String()
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
