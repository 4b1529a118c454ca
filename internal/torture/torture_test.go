package torture

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"amuletiso/internal/cc"
	"amuletiso/internal/cpu"
)

// TestDifferentialCampaign is the harness's core claim, in miniature: a
// campaign of generated programs must behave identically under every
// isolation model, with the unprotected baseline never slower than an
// instrumented build.
func TestDifferentialCampaign(t *testing.T) {
	cfg := DefaultConfig(KindDifferential)
	cfg.Programs = 150
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("differential failures:\n%s", rep.Summary())
	}
	if rep.Passed != cfg.Programs {
		t.Fatalf("passed %d of %d", rep.Passed, cfg.Programs)
	}
	// The paper's Figure 3 ordering must reproduce over generated programs:
	// the hybrid's single lower-bound compare costs less than SoftwareOnly's
	// two compares per access.
	if rep.OverheadPct["MPU"] >= rep.OverheadPct["SoftwareOnly"] {
		t.Errorf("overhead ordering violated: MPU %.2f%% >= SoftwareOnly %.2f%%",
			rep.OverheadPct["MPU"], rep.OverheadPct["SoftwareOnly"])
	}
	if rep.OverheadPct["MPU"] <= 0 {
		t.Errorf("MPU overhead %.2f%% should be positive", rep.OverheadPct["MPU"])
	}
}

// TestAdversarialCampaign asserts 100% of injected violations are trapped,
// each by the layer the oracle attributes.
func TestAdversarialCampaign(t *testing.T) {
	cfg := DefaultConfig(KindAdversarial)
	cfg.Programs = 150
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("adversarial failures:\n%s", rep.Summary())
	}
	if rep.Injected == 0 || rep.Trapped != rep.Injected {
		t.Fatalf("trapped %d of %d injected violations", rep.Trapped, rep.Injected)
	}
	// Both trap layers of the hybrid design must show up: the compiler's
	// lower-bound compare and the MPU's segment hardware.
	if rep.TrappedByLayer["MPU/"+string(LayerCompiler)] == 0 ||
		rep.TrappedByLayer["MPU/"+string(LayerMPU)] == 0 {
		t.Errorf("expected both MPU-mode layers to trap something: %v", rep.TrappedByLayer)
	}
	// SoftwareOnly must trap everything in software.
	for layer, n := range rep.TrappedByLayer {
		if strings.HasPrefix(layer, "SoftwareOnly/") && layer != "SoftwareOnly/"+string(LayerCompiler) {
			t.Errorf("SoftwareOnly trapped via unexpected layer %s (%d×)", layer, n)
		}
	}
}

// TestHostedCampaign runs adversarial handlers under the full AFT+kernel
// stack, reaching the layers standalone programs cannot: gate
// pointer-argument validation and the watchdog.
func TestHostedCampaign(t *testing.T) {
	cfg := DefaultConfig(KindHosted)
	cfg.Programs = 40
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("hosted failures:\n%s", rep.Summary())
	}
	if rep.Trapped != rep.Injected || rep.Injected == 0 {
		t.Fatalf("trapped %d of %d", rep.Trapped, rep.Injected)
	}
	for _, want := range []string{
		"MPU/" + string(LayerGate),
		"MPU/" + string(LayerWatchdog),
		"SoftwareOnly/" + string(LayerGate),
	} {
		if rep.TrappedByLayer[want] == 0 {
			t.Errorf("layer %s trapped nothing: %v", want, rep.TrappedByLayer)
		}
	}
}

// TestCampaignByteIdenticalAcrossWorkers asserts the report is a pure
// function of the config: same seed, any parallelism, same bytes.
func TestCampaignByteIdenticalAcrossWorkers(t *testing.T) {
	for _, kind := range []string{KindDifferential, KindAdversarial} {
		var blobs []string
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig(kind)
			cfg.Programs = 40
			cfg.Workers = workers
			rep, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, string(b))
		}
		if blobs[0] != blobs[1] {
			t.Errorf("%s: reports differ between 1 and 4 workers", kind)
		}
	}
}

// TestCampaignSharding asserts disjoint shards reproduce the union run's
// per-case outcomes, like fleet device sharding.
func TestCampaignSharding(t *testing.T) {
	cfg := DefaultConfig(KindAdversarial)
	cfg.Programs = 30
	whole, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := cfg
	half.First, half.Programs = 15, 15
	shard, err := Run(context.Background(), half)
	if err != nil {
		t.Fatal(err)
	}
	if shard.Failed != 0 || whole.Failed != 0 {
		t.Fatal("unexpected failures")
	}
	if whole.Trapped != whole.Injected || shard.Trapped != shard.Injected {
		t.Fatal("shard trap accounting broken")
	}
}

// TestShrinkerPreservesFailureCategory plants a deliberate failure (an
// adversarial program executed under differential rules faults at runtime)
// and checks the shrinker finds a smaller program failing the same way.
func TestShrinkerPreservesFailureCategory(t *testing.T) {
	seed := caseSeed(0xBAD, 3)
	c, p := buildCaseProg(KindAdversarial, seed, false)
	c.Kind = KindDifferential // reinterpreting the attack as a benign program
	out := Execute(c)
	if out.Pass {
		t.Skip("attack escaped under differential modes; pick another seed")
	}
	shrunk := shrinkFailure(p, c, out.Category)
	if len(shrunk) >= len(c.Source) {
		t.Errorf("shrinker did not reduce: %d -> %d bytes", len(c.Source), len(shrunk))
	}
	again := Execute(&Case{Kind: KindDifferential, Seed: seed, Source: shrunk, Restricted: c.Restricted})
	if again.Pass || again.Category != out.Category {
		t.Errorf("shrunk case category %q, want %q (pass=%v)", again.Category, out.Category, again.Pass)
	}
}

// TestCaseSeedStability pins the seed derivation: corpus files and recorded
// campaign reports depend on it never changing.
func TestCaseSeedStability(t *testing.T) {
	if got := caseSeed(1, 0); got != 10905525725756348110 {
		t.Fatalf("caseSeed(1, 0) = %d; the derivation must stay fixed", got)
	}
	a := BuildCase(KindDifferential, caseSeed(1, 0), false)
	b := BuildCase(KindDifferential, caseSeed(1, 0), false)
	if a.Source != b.Source {
		t.Fatal("BuildCase is not deterministic")
	}
}

// TestLongRejectionStreaksStillCompile: the seeds below start more than ten
// candidates the compiler rejects (the eight-register budget). The builder
// must walk past them to a compilable program rather than hand the campaign
// a compile-error case.
func TestLongRejectionStreaksStillCompile(t *testing.T) {
	for _, seed := range []uint64{7041778764733911822, 17688776090978996234} {
		out := Execute(BuildCase(KindDifferential, seed, false))
		if !out.Pass {
			t.Errorf("seed %d: %s: %s", seed, out.Category, out.Reason)
		}
	}
}

// TestRestrictedCasesCompileRestricted asserts restricted-dialect cases
// really stay inside original Amulet C.
func TestRestrictedCasesCompileRestricted(t *testing.T) {
	for i := 0; i < 8; i++ {
		c := BuildCase(KindDifferential, caseSeed(5, i), true)
		if _, err := cc.CompileProgram(unitName, c.Source, cc.ProgramOptions{Mode: cc.ModeFeatureLimited}); err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, c.Source)
		}
	}
}

// TestVectorHoleProbe pins the modeled hardware hole end to end: a store
// above main FRAM escapes the MPU hybrid (lower-bound check passes, segment
// hardware cannot see it) but SoftwareOnly's upper-bound compare traps it —
// exactly the asymmetry §2 of the paper builds its design on.
func TestVectorHoleProbe(t *testing.T) {
	src := `
int g0;
int main() {
    char *atkp = 0;
    atkp = atkp + 65416;
    *atkp = 1;
    return 7;
}
`
	res, err := runStandalone(src, cc.ModeMPU)
	if err != nil {
		t.Fatal(err)
	}
	if res.stop != cpu.StopHalt || res.exit != 7 {
		t.Fatalf("MPU mode: expected the vector-table store to escape, got stop=%v exit=0x%04X fault=%v",
			res.stop, res.exit, res.fault)
	}
	res, err = runStandalone(src, cc.ModeSoftwareOnly)
	if err != nil {
		t.Fatal(err)
	}
	if classifyStandalone(res) != LayerCompiler {
		t.Fatalf("SoftwareOnly: expected the upper-bound compare to trap, got stop=%v exit=0x%04X",
			res.stop, res.exit)
	}
}
