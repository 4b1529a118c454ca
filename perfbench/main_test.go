package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the result line must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics fails unless got names exactly the wanted metrics, each with
// its declared unit.
func checkMetrics(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and checks
// that no op fails and that the printed metrics are exactly the ones
// BENCHMARK.json declares.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, sw := range spec.Workloads {
		if _, ok := workloads[sw.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined", sw.Name)
		}
	}
	e := env{seed: 7, workers: 2, workDir: t.TempDir()}
	for _, name := range sortedWorkloads() {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			w.setups = 1
			plain, err := runPlain(context.Background(), w, e, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Failed != 0 || !plain.Correct {
				t.Errorf("fail_pct %.1f%%", 100*float64(plain.Failed)/float64(plain.Attempted))
			}
			checkMetrics(t, plain.Metrics, spec.EndToEnd)
			traced, err := runTraced(context.Background(), w, e, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 {
				t.Errorf("traced run: %d of %d ops failed", traced.Failed, traced.Attempted)
			}
			checkMetrics(t, traced.Metrics, spec.PerLayer)
		})
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(v, n=4), which the benchmark's bounds are set with.
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestCaseSeed checks the replay's copy of the campaign's case-seed
// derivation against the value the torture package pins.
func TestCaseSeed(t *testing.T) {
	if got := caseSeed(1, 0); got != 10905525725756348110 {
		t.Errorf("caseSeed(1, 0) = %d", got)
	}
}
