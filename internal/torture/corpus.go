package torture

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The regression corpus: shrunk generator outputs committed under
// testdata/, replayed by a plain `go test` so CI exercises the whole
// pipeline — generation shapes, differential equivalence and adversarial
// layer attribution — without running a long campaign.

// CorpusSeed is the seed the committed corpus under testdata/ was built
// with; `amulettorture -write-corpus` regenerates the same files.
const CorpusSeed = 7

// WriteCase serializes a case to dir/<name>.json.
func WriteCase(dir string, c *Case) error {
	if c.Name == "" {
		return fmt.Errorf("torture: corpus case needs a name")
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, c.Name+".json"), append(data, '\n'), 0o644)
}

// LoadCorpus reads every case file under dir, sorted by file name.
func LoadCorpus(dir string) ([]*Case, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var cases []*Case
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		c := &Case{}
		if err := json.Unmarshal(data, c); err != nil {
			return nil, fmt.Errorf("torture: %s: %w", path, err)
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// ladderCorpusCases are hand-written branch-ladder and PUSH-run regressions:
// programs whose compiled form is dense in CMP+Jcc condition ladders,
// MOV#imm+ALU constant arithmetic and call-heavy PUSH traffic, with branch
// and call-return targets landing between adjacent instructions of those
// idioms. They replay as ordinary differential cases, and
// TestCorpusReplayAcrossEngines additionally replays every corpus case under
// each engine cell, which is what locks these shapes down. (The deterministic
// jump-into-a-block and gate/watchdog-mid-prologue cases live in
// internal/cpu and internal/kernel, where instruction layout is controlled
// by hand.) The case names keep their historical prefix.
var ladderCorpusCases = []struct {
	name, note, source string
	restricted         bool
}{
	{
		name: "fuse-00-branch-ladder",
		note: "branch ladder: if/else ladders compile to CMP+Jcc chains whose taken branches land between compare/jump pairs",
		source: `int g0;
int g1;
int main() {
    int i; int acc; int j;
    acc = 0;
    for (i = 0; i < 29; i++) {
        if (i % 3 == 1) { acc = acc + i; } else {
            if (i % 5 == 0) { acc = acc + 2; } else { acc = acc - 1; }
        }
        j = 0;
        while (j < (i % 4)) { acc = acc + j; j = j + 1; }
    }
    g0 = acc;
    g1 = i * 3;
    return acc + g1;
}
`,
	},
	{
		name: "fuse-01-compare-dense",
		note: "branch ladder: back-to-back comparisons against constants, re-entered from call returns",
		source: `int g0;
int cmp3(int a, int b) {
    if (a < b) { return 0 - 1; }
    if (a > b) { return 1; }
    return 0;
}
int main() {
    int i; int s;
    s = 0;
    for (i = 0 - 6; i < 7; i++) {
        s = s + cmp3(i, 0) * 4 + cmp3(i, 3);
        if (s == 2) { s = s + 9; }
        if (s != 2) { s = s - 1; }
    }
    g0 = s;
    return s;
}
`,
	},
	{
		name: "fuse-02-push-recursion",
		note: "PUSH run: recursive calls exercise PUSH runs and returns landing after the saving prologues",
		source: `int g0;
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    g0 = fib(9);
    return g0 + fib(5);
}
`,
	},
	{
		name:       "fuse-03-restricted-array-loop",
		note:       "branch ladder: restricted-dialect array loop, MOV#imm+ALU bounds arithmetic under all four modes",
		restricted: true,
		source: `int g0;
int a[8];
int main() {
    int i; int t;
    t = 1;
    for (i = 0; i < 8; i++) {
        a[i] = t;
        t = t + a[i % 4];
        while (t > 19) { t = t - 13; }
    }
    g0 = t;
    return a[7] + t;
}
`,
	},
}

// jitCorpusCases are hand-written superblock-JIT regressions: programs whose
// compiled form is dense in the shapes the block lifter optimizes and in the
// boundaries that force deoptimization back to the interpreter. They replay
// as ordinary differential cases, and TestCorpusReplayAcrossEngines replays
// every corpus case across the {jit, nojit} axis of the engine matrix, which
// is what locks these shapes down. (The deterministic IRQ-mid-block,
// self-modifying-store and jump-into-interior reproducers live in
// internal/cpu, where instruction layout is controlled by hand; the
// gate-crossing and watchdog deopts ride the committed hosted-* cases.)
var jitCorpusCases = []struct {
	name, note, source string
	restricted         bool
}{
	{
		name: "jit-00-interior-entry",
		note: "jit boundary: loop back-edges land inside long straight-line runs, entering overlapping blocks at interior heads",
		source: `int g0;
int g1;
int main() {
    int i; int a; int b;
    a = 1; b = 2;
    for (i = 0; i < 23; i++) {
        a = a + b * 3 + 7;
        b = b + a / 5 + 1;
        a = a - b / 3;
        b = b + 11;
        a = a + b - 4;
        if (a > 900) { a = a - 811; }
    }
    g0 = a;
    g1 = b;
    return a + b;
}
`,
	},
	{
		name: "jit-01-store-dense",
		note: "jit boundary: a global store every few instructions splits every block into short atomic segments with folded absolute addresses",
		source: `int g0;
int g1;
int g2;
int g3;
int main() {
    int i;
    g0 = 0; g1 = 0; g2 = 0; g3 = 0;
    for (i = 0; i < 17; i++) {
        g0 = g0 + i;
        g1 = g0 * 2 + g1;
        g2 = g1 - g0 + 3;
        g3 = g3 + g2 % 7;
    }
    return g0 + g1 + g2 + g3;
}
`,
	},
	{
		name: "jit-02-flag-ladder",
		note: "jit boundary: chained comparisons and pure arithmetic runs exercise dead-flag elision against live CMP+Jcc consumers",
		source: `int g0;
int main() {
    int i; int s; int t;
    s = 0; t = 5;
    for (i = 0 - 8; i < 9; i++) {
        t = t + i * 2;
        s = s + t;
        if (t < 0) { s = s + 1; }
        if (t == 5) { s = s + 2; }
        if (t > 40) { s = s - 3; }
        if (s != 0) { t = t + 1; }
    }
    g0 = s;
    return s + t;
}
`,
	},
	{
		name:       "jit-03-call-dense",
		note:       "jit boundary: calls terminate blocks and return addresses head new ones; restricted dialect under all four modes",
		restricted: true,
		source: `int g0;
int a[6];
int addup(int n) {
    int j; int s;
    s = 0;
    for (j = 0; j < n; j++) { s = s + a[j]; }
    return s;
}
int main() {
    int i;
    for (i = 0; i < 6; i++) { a[i] = i * 3 + 1; }
    g0 = addup(6) + addup(3) + addup(1);
    return g0;
}
`,
	},
}

// BuildCorpus deterministically regenerates the committed corpus into dir:
// a slice of differential programs straight from the generator, plus
// adversarial and hosted reproducers shrunk to their minimal trapping form
// (the predicate preserves the full per-mode layer attribution), plus the
// hand-written branch-ladder and superblock-JIT regressions above. Returns
// the written case names.
func BuildCorpus(dir string, seed uint64) ([]string, error) {
	var names []string
	write := func(c *Case) error {
		names = append(names, c.Name)
		return WriteCase(dir, c)
	}

	// Differential: generator-shape regression cases, one per seed index,
	// every fourth in the restricted dialect.
	for i := 0; i < 8; i++ {
		c := BuildCase(KindDifferential, caseSeed(seed, i), i%4 == 0)
		c.Name = fmt.Sprintf("diff-%02d", i)
		c.Note = "generator output; replay asserts mode equivalence"
		if out := Execute(c); !out.Pass {
			return nil, fmt.Errorf("torture: corpus case %s fails: %s", c.Name, out.Reason)
		}
		if err := write(c); err != nil {
			return nil, err
		}
	}

	// Adversarial and hosted: walk the seed stream until every attack kind
	// has one reproducer, then shrink each to its minimal trapping form.
	wantAdv := []attackKind{atkStore, atkLoad, atkOOBIndex, atkNullCall}
	wantHosted := []attackKind{atkStore, atkOOBIndex, atkGatePtr, atkSpin}
	for _, family := range []struct {
		kind       string
		prefix     string
		wanted     []attackKind
		restricted func(i int) bool
	}{
		{KindAdversarial, "adv", wantAdv, func(i int) bool { return i%5 == 0 }},
		{KindHosted, "hosted", wantHosted, func(i int) bool { return false }},
	} {
		seen := map[attackKind]int{}
		for i, n := 0, 0; n < len(family.wanted)*2 && i < 400; i++ {
			c, p := buildCaseProg(family.kind, caseSeed(seed+0xAD, i), family.restricted(i))
			if c.Attack == nil || seen[c.Attack.Kind] >= 2 {
				continue
			}
			found := false
			for _, w := range family.wanted {
				if c.Attack.Kind == w {
					found = true
				}
			}
			if !found {
				continue
			}
			orig := Execute(c)
			if !orig.Pass {
				return nil, fmt.Errorf("torture: corpus seed %d (%s) fails: %s", c.Seed, c.Attack, orig.Reason)
			}
			min := shrinkProgram(p, func(cand *program) bool {
				o := Execute(programCase(cand, c))
				return o.Pass && layersEqual(o, orig)
			})
			mc := programCase(min, c)
			mc.Name = fmt.Sprintf("%s-%02d-%s", family.prefix, seen[c.Attack.Kind], c.Attack.Kind)
			mc.Note = fmt.Sprintf("shrunk reproducer: %s; replay asserts layer attribution", c.Attack)
			if err := write(mc); err != nil {
				return nil, err
			}
			seen[c.Attack.Kind]++
			n++
		}
	}

	// Branch-ladder and superblock-JIT regressions: hand-written, validated
	// before writing so a dialect or generator change cannot silently commit
	// a failing case.
	for _, fc := range append(append([]struct {
		name, note, source string
		restricted         bool
	}{}, ladderCorpusCases...), jitCorpusCases...) {
		c := &Case{
			Name:       fc.name,
			Kind:       KindDifferential,
			Seed:       seed,
			Restricted: fc.restricted,
			Source:     fc.source,
			Note:       fc.note,
		}
		if out := Execute(c); !out.Pass {
			return nil, fmt.Errorf("torture: corpus case %s fails: %s", c.Name, out.Reason)
		}
		if err := write(c); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// layersEqual reports whether two outcomes attribute every mode to the same
// layers.
func layersEqual(a, b *Outcome) bool {
	if len(a.Expected) != len(b.Expected) || len(a.Observed) != len(b.Observed) {
		return false
	}
	for m, l := range b.Expected {
		if a.Expected[m] != l {
			return false
		}
	}
	for m, l := range b.Observed {
		if a.Observed[m] != l {
			return false
		}
	}
	return true
}
