package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"amuletiso/internal/obs"
)

// TestSummarizeNearestRank pins summarize to the nearest-rank (ceiling)
// convention at the boundary sizes where the old round-half-up conversion
// picked the wrong element: the p-th percentile over n sorted values is
// s[ceil(p/100*n)-1].
func TestSummarizeNearestRank(t *testing.T) {
	ladder := func(n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i + 1) // sorted 1..n: value == 1-based rank
		}
		return vals
	}
	rank := func(p float64, n int) float64 {
		return math.Ceil(p / 100 * float64(n)) // expected value in a 1..n ladder
	}
	for _, n := range []int{1, 3, 7, 10, 100} {
		sum := summarize(ladder(n))
		for _, tc := range []struct {
			p    float64
			got  float64
			name string
		}{
			{50, sum.P50, "p50"},
			{90, sum.P90, "p90"},
			{99, sum.P99, "p99"},
		} {
			want := rank(tc.p, n)
			if tc.got != want {
				t.Errorf("n=%d %s = %v, want rank %v", n, tc.name, tc.got, want)
			}
		}
		if sum.Min != 1 || sum.Max != float64(n) {
			t.Errorf("n=%d min/max = %v/%v, want 1/%d", n, sum.Min, sum.Max, n)
		}
	}
	// The regression from the issue: p90 over 7 devices must be the 7th
	// value (ceil(6.3) = 7), not the 6th the rounding conversion returned.
	if got := summarize(ladder(7)).P90; got != 7 {
		t.Errorf("p90 over 7 values = %v, want 7", got)
	}
	// n=10 p50 sits exactly on a rank boundary: ceil(5.0) = 5, no off-by-one.
	if got := summarize(ladder(10)).P50; got != 5 {
		t.Errorf("p50 over 10 values = %v, want 5", got)
	}
	if got := summarize(nil); got != (Summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
}

// TestSummarizeMatchesCycleHistConvention cross-checks summarize against
// obs.CycleHist.Quantile (the convention PR 7 fixed): feeding both the same
// samples, summarize's percentile must land in the bucket CycleHist reports.
func TestSummarizeMatchesCycleHistConvention(t *testing.T) {
	for _, n := range []int{1, 3, 7, 10, 100} {
		var h obs.CycleHist
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			v := uint64(i+1) * 100 // well inside distinct low buckets
			h.Observe(v)
			vals[i] = float64(v)
		}
		sum := summarize(vals)
		for _, q := range []struct {
			frac float64
			pct  float64
			got  float64
		}{
			{0.50, 50, sum.P50},
			{0.90, 90, sum.P90},
			{0.99, 99, sum.P99},
		} {
			bound := h.Quantile(q.frac)
			// CycleHist reports the bucket upper bound (or Max for the last
			// bucket); the exact nearest-rank value must not exceed it, and
			// must fall past the previous bucket's bound.
			if uint64(q.got) > bound && bound != h.Max {
				t.Errorf("n=%d p%.0f: summarize %v above CycleHist bound %d",
					n, q.pct, q.got, bound)
			}
			// Both conventions must agree on the rank itself: recompute the
			// rank CycleHist used and check summarize picked the same sample.
			rank := int(math.Ceil(q.frac * float64(n)))
			if want := float64(rank * 100); q.got != want {
				t.Errorf("n=%d p%.0f = %v, want rank-%d value %v", n, q.pct, q.got, rank, want)
			}
		}
	}
}

// TestReportMergeFailurePaths exercises every rejection branch of Merge and
// asserts a failed merge leaves the receiver untouched.
func TestReportMergeFailurePaths(t *testing.T) {
	sc := testScenario(4)
	full, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	shard := func(devs []DeviceResult) *Report {
		return &Report{
			Scenario: full.Scenario, Mode: full.Mode, Seed: full.Seed,
			DurationMS: full.DurationMS,
			PerDevice:  append([]DeviceResult(nil), devs...),
		}
	}
	base := shard(full.PerDevice[:2])
	base.finalize()
	golden := marshal(t, base)

	mutations := []struct {
		name   string
		mutate func(r *Report)
	}{
		{"scenario name", func(r *Report) { r.Scenario = "other" }},
		{"mode", func(r *Report) { r.Mode = "NoIsolation" }},
		{"seed", func(r *Report) { r.Seed++ }},
		{"duration", func(r *Report) { r.DurationMS++ }},
	}
	for _, m := range mutations {
		other := shard(full.PerDevice[2:])
		m.mutate(other)
		if err := base.Merge(other); err == nil {
			t.Errorf("merge with mismatched %s succeeded", m.name)
		}
	}
	// Device overlap: same indices on both sides.
	if err := base.Merge(shard(full.PerDevice[1:3])); err == nil {
		t.Error("merge with overlapping device indices succeeded")
	}
	// Self-merge is the degenerate overlap case.
	if err := base.Merge(base); err == nil {
		t.Error("self-merge succeeded")
	}
	if !bytes.Equal(golden, marshal(t, base)) {
		t.Error("failed merges mutated the receiver")
	}
}

// FuzzReportMerge splits the nine-app suite golden's report into contiguous
// shards at fuzzed cut points, finalizing each, as fleet runs of the ranges
// would. Merged in one call, and one shard at a time from a fuzzed first
// shard, the shards give the golden's bytes. A shard listing two devices out
// of order, or a shard merged twice, is rejected, and the failed merge
// leaves its receiver untouched.
func FuzzReportMerge(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden_suite.json")
	if err != nil {
		f.Fatal(err)
	}
	var whole Report
	if err := json.Unmarshal(golden, &whole); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{12})
	f.Add([]byte{3, 1, 1, 5, 16, 23})
	f.Add([]byte{0, 24, 200})
	f.Fuzz(func(t *testing.T, cuts []byte) {
		// shards cuts whole.PerDevice at the fuzzed points; repeated points
		// make empty shards.
		bounds := []int{0, len(whole.PerDevice)}
		for _, c := range cuts {
			bounds = append(bounds, int(c)%(len(whole.PerDevice)+1))
		}
		slices.Sort(bounds)
		shards := func() []*Report {
			var out []*Report
			for i := 1; i < len(bounds); i++ {
				r := &Report{Scenario: whole.Scenario, Mode: whole.Mode, Seed: whole.Seed,
					DurationMS: whole.DurationMS, PerDevice: slices.Clone(whole.PerDevice[bounds[i-1]:bounds[i]])}
				r.finalize()
				out = append(out, r)
			}
			return out
		}

		all := shards()
		if err := all[0].Merge(all[1:]...); err != nil {
			t.Fatalf("one merge of %d shards: %v", len(all), err)
		}
		if !bytes.Equal(cliJSON(t, all[0]), golden) {
			t.Fatalf("one merge of %d shards differs from the golden", len(all))
		}
		all = shards()
		first := 0
		if len(cuts) > 0 {
			first = int(cuts[0]) % len(all)
		}
		merged := all[first]
		for i, r := range all {
			if i != first {
				if err := merged.Merge(r); err != nil {
					t.Fatalf("merge of shard %d into shard %d: %v", i, first, err)
				}
			}
		}
		if !bytes.Equal(cliJSON(t, merged), golden) {
			t.Fatalf("shard-at-a-time merge from shard %d differs from the golden", first)
		}

		all = shards()
		big := slices.IndexFunc(all, func(r *Report) bool { return len(r.PerDevice) >= 2 })
		if big < 0 {
			return // cuts only between every device: no shard can go out of order
		}
		before := marshal(t, all[0])
		if err := all[0].Merge(append(all[1:], all[big])...); err == nil {
			t.Fatalf("merge with shard %d twice succeeded", big)
		}
		if !bytes.Equal(marshal(t, all[0]), before) {
			t.Fatal("a rejected merge changed its receiver")
		}
		d := all[big].PerDevice
		d[0], d[1] = d[1], d[0]
		before = marshal(t, all[0])
		if err := all[0].Merge(all[1:]...); err == nil {
			t.Fatalf("merge with shard %d out of order succeeded", big)
		}
		if !bytes.Equal(marshal(t, all[0]), before) {
			t.Fatal("a rejected merge changed its receiver")
		}
	})
}

// TestSchedulerShardUnionByteIdentity asserts the daemon scheduler's shard
// planning — contiguous FirstDevice ranges of varying sizes, merged in
// completion order rather than index order — reproduces the union run
// byte-for-byte. This is the property the fleetd NDJSON stream relies on.
func TestSchedulerShardUnionByteIdentity(t *testing.T) {
	sc := testScenario(11)
	full, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, shardDevices := range []int{1, 3, 4, 11, 20} {
		runner := &Runner{Workers: 2, Cache: NewBuildCache()}
		var reports []*Report
		for first := 0; first < sc.Devices; first += shardDevices {
			n := shardDevices
			if first+n > sc.Devices {
				n = sc.Devices - first
			}
			shard := sc
			shard.FirstDevice = first
			shard.Devices = n
			rep, err := runner.Run(context.Background(), shard)
			if err != nil {
				t.Fatalf("shardDevices=%d first=%d: %v", shardDevices, first, err)
			}
			reports = append(reports, rep)
		}
		// Merge out of order (last shard first), as a daemon receiving
		// completions from a pool would.
		merged := reports[len(reports)-1]
		for i := len(reports) - 2; i >= 0; i-- {
			if err := merged.Merge(reports[i]); err != nil {
				t.Fatalf("shardDevices=%d: merge: %v", shardDevices, err)
			}
		}
		if !bytes.Equal(marshal(t, merged), marshal(t, full)) {
			t.Fatalf("shardDevices=%d: merged shard union differs from union run", shardDevices)
		}
	}
}
