package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call, recorded from the benchmark's side of a layer
// boundary. Op is the op the call served (-1 for the replay).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNS"`
	End    int64  `json:"endNS"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs pass through the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.endAs(id, "") }

// endAs closes a span, renaming it when name is set: a wait is named after
// what ended it.
func (t *tracer) endAs(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if name != "" {
		t.spans[id-1].Name = name
	}
}

// tree indexes the recorded spans by parent.
type tree struct {
	spans    []span
	children map[int][]int
}

func (t *tracer) tree() *tree {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := &tree{spans: append([]span(nil), t.spans...), children: map[int][]int{}}
	for _, s := range tr.spans {
		tr.children[s.Parent] = append(tr.children[s.Parent], s.ID)
	}
	return tr
}

// covered is the length of the union of id's children's intervals: the part
// of id's time its children account for (children of a parallel call
// overlap).
func (tr *tree) covered(id int) int64 {
	var iv [][2]int64
	for _, c := range tr.children[id] {
		s := tr.spans[c-1]
		iv = append(iv, [2]int64{s.Start, s.End})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

// self is a span's duration minus the part its children cover.
func (tr *tree) self(id int) int64 { return tr.spans[id-1].dur() - tr.covered(id) }

// under reports whether span id descends from a span named root.
func (tr *tree) under(id int, root string) bool {
	for p := tr.spans[id-1].Parent; p != 0; p = tr.spans[p-1].Parent {
		if tr.spans[p-1].Name == root {
			return true
		}
	}
	return false
}

// byName sums duration and self time of spans per name, over spans
// descending from a span named root ("" = all spans).
type nameStat struct {
	n         int
	dur, self int64
}

func (tr *tree) byName(root string) map[string]*nameStat {
	out := map[string]*nameStat{}
	for _, s := range tr.spans {
		if root != "" && !tr.under(s.ID, root) {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &nameStat{}
			out[s.Name] = st
		}
		st.n++
		st.dur += s.dur()
		st.self += tr.self(s.ID)
	}
	return out
}

// meanMS is the mean duration of spans named name, in milliseconds.
func meanMS(st map[string]*nameStat, name string) float64 {
	s := st[name]
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.dur) / float64(s.n) / 1e6
}

// printTable writes a self-time table of the spans under root, largest
// first, and returns each span name's share of the section's self time.
func printTable(title string, st map[string]*nameStat) map[string]float64 {
	var names []string
	var total int64
	for n, s := range st {
		names = append(names, n)
		total += s.self
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	shares := map[string]float64{}
	fmt.Fprintf(os.Stderr, "%s\n  %-34s %8s %12s %7s\n", title, "span", "count", "self ms", "share")
	for _, n := range names {
		s := st[n]
		share := 0.0
		if total > 0 {
			share = 100 * float64(s.self) / float64(total)
		}
		shares[n] = share
		fmt.Fprintf(os.Stderr, "  %-34s %8d %12.1f %6.1f%%\n", n, s.n, float64(s.self)/1e6, share)
	}
	return shares
}

// writeSpans saves the run's spans as JSON in the work directory.
func writeSpans(dir, name string, tr *tree) error {
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// runTraced measures a workload with every other op traced, replays one
// op's work through the layers, and reports the per-layer metrics.
func runTraced(ctx context.Context, w workload, e env, dur time.Duration) (*result, error) {
	inst, err := w.setup(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	tr := newTracer()
	s, err := measure(ctx, inst, dur, tr)
	if err != nil {
		return nil, err
	}
	rp, err := replay(ctx, e, inst.replay, tr)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	t := tr.tree()
	if err := writeSpans(e.workDir, fmt.Sprintf("spans-%s-%d.json", w.name, e.seed), t); err != nil {
		return nil, err
	}
	m := layerMetrics(t, s, rp, inst)
	logf("%s seed %d traced: %d ops (%d failed), coverage %.1f%%, overhead %+.1f%%",
		w.name, e.seed, s.attempted, s.failed, m["trace.coverage_pct"].Value, m["trace.overhead_pct"].Value)
	return &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}, nil
}

// opCoverage is the share of the traced ops' wall time their child spans
// cover.
func opCoverage(t *tree) float64 {
	var dur, cov int64
	for _, s := range t.spans {
		if s.Name == "op" && s.Parent == 0 {
			dur += s.dur()
			cov += t.covered(s.ID)
		}
	}
	if dur == 0 {
		return 0
	}
	return 100 * float64(cov) / float64(dur)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// shareNames are the replay spans whose share of the op replay the traced
// run reports: together they name where an op's host time goes.
var shareNames = []string{
	"torture.gen", "cc.compile", "cpu.run",
	"kernel.boot", "kernel.dispatch", "kernel.checkpoint", "kernel.reboot",
	"fleet.merge", "fleet.encode", "fleetd.persist",
}

func shareMetric(name string) string {
	return "replay_pct." + strings.ReplaceAll(name, ".", "_")
}
