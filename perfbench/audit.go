package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runAudit repeats the run in n child processes (each a fresh process, as
// the benchmark is run) and prints, per metric, the median, the quartiles and
// the largest deviation from the median. It flags metrics that do not repeat
// within a tenth and exact counts that do not repeat exactly, and fails when
// any op failed.
func runAudit(n int, varySeeds bool, seed uint64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var results []result
	var counts []string
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed
		if varySeeds {
			s += uint64(i)
		}
		args := childArgs(os.Args[1:], s)
		cmd := exec.Command(exe, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d (seed %d): %v\n%s", i, s, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("run %d: bad result line: %w", i, err)
		}
		results = append(results, r)
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		sc := bufio.NewScanner(&stderr)
		for sc.Scan() {
			if c, ok := strings.CutPrefix(sc.Text(), "counts "); ok {
				counts = append(counts, c)
			}
		}
		fmt.Fprintf(os.Stderr, "audit run %d/%d seed %d: %d ops, %d failed\n", i+1, n, s, r.Attempted, r.Failed)
	}

	var names []string
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-44s %-12s %14s %14s %14s %9s %9s\n", "metric", "unit", "q1", "median", "q3", "iqr/med", "maxdev")
	for _, name := range names {
		v := values[name]
		q1, med, q3 := quartiles(v)
		maxDev := 0.0
		for _, x := range v {
			maxDev = math.Max(maxDev, math.Abs(x-med))
		}
		rel := func(x float64) float64 {
			if med == 0 {
				return 0
			}
			return x / math.Abs(med)
		}
		flag := ""
		if rel(maxDev) > 0.1 {
			flag = "  NOT WITHIN A TENTH"
		}
		fmt.Printf("%-44s %-12s %14.6g %14.6g %14.6g %8.2f%% %8.2f%%%s\n",
			name, units[name], q1, med, q3, 100*rel(q3-q1), 100*rel(maxDev), flag)
	}

	bad := 0
	for i, r := range results {
		if r.Failed != 0 || !r.Correct {
			fmt.Printf("run %d: fail_pct %.2f%%\n", i, 100*float64(r.Failed)/float64(r.Attempted))
			bad++
		}
	}
	if bad == 0 {
		fmt.Printf("fail_pct 0 on all %d runs\n", n)
	}
	exact := true
	for _, c := range counts[1:] {
		exact = exact && c == counts[0]
	}
	switch {
	case len(counts) > 0 && exact:
		fmt.Printf("exact counts repeat exactly: %s\n", counts[0])
	case varySeeds:
		fmt.Printf("exact counts vary with the seed:\n  %s\n", strings.Join(counts, "\n  "))
	default:
		fmt.Printf("EXACT COUNTS DIFFER:\n  %s\n", strings.Join(counts, "\n  "))
		bad++
	}
	if bad > 0 {
		return fmt.Errorf("audit found failed ops or counts that did not repeat")
	}
	return nil
}

// childArgs is the audited command line without --audit flags and with the
// given seed.
func childArgs(args []string, seed uint64) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		name, _, hasValue := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		switch name {
		case "audit", "seed":
			if !hasValue {
				i++
			}
			continue
		case "audit-seeds":
			continue
		}
		out = append(out, args[i])
	}
	return append(out, "--seed", strconv.FormatUint(seed, 10))
}

// quartiles computes the quartiles as Python's statistics.quantiles(v, n=4)
// does (the exclusive method), which is how the benchmark's bounds are set.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
