package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// CounterVec is a counter family partitioned by one label. Children are
// created on first use and live forever (label cardinality here is tiny and
// closed: fault classes, isolation modes).
type CounterVec struct {
	label string
	mu    sync.Mutex
	kids  map[string]*Counter
}

// With returns the child counter for the label value, creating it if needed.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[value]
	if !ok {
		c = &Counter{}
		v.kids[value] = c
	}
	return c
}

// Value returns the child's current count without creating it.
func (v *CounterVec) Value(value string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[value]; ok {
		return c.Value()
	}
	return 0
}

// Total sums all children.
func (v *CounterVec) Total() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var t uint64
	for _, c := range v.kids {
		t += c.Value()
	}
	return t
}

// Histogram is a fixed-bucket cumulative histogram with atomic buckets, for
// process-level wall-domain observations (e.g. device run durations). For
// deterministic cycle-domain data that feeds reports, use CycleHist instead.
type Histogram struct {
	bounds []uint64 // upper bounds, ascending; implicit +Inf last
	counts []atomic.Uint64
	sum    atomic.Uint64
}

// Observe records v.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// metric is one registered family.
type metric struct {
	name string
	help string
	c    *Counter
	g    *Gauge
	v    *CounterVec
	h    *Histogram
}

// Registry holds metric families and renders them in Prometheus text format.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
}

// Default is the process-wide registry every instrumented package uses.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

func (r *Registry) get(name, help string, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := mk()
	m.name, m.help = name, help
	r.byName[name] = m
	return m
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.get(name, help, func() *metric { return &metric{c: &Counter{}} }).c
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.get(name, help, func() *metric { return &metric{g: &Gauge{}} }).g
}

// CounterVec registers (or returns the existing) labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return r.get(name, help, func() *metric {
		return &metric{v: &CounterVec{label: label, kids: map[string]*Counter{}}}
	}).v
}

// Histogram registers (or returns the existing) histogram with the given
// ascending upper bounds (an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, bounds []uint64) *Histogram {
	return r.get(name, help, func() *metric {
		h := &Histogram{bounds: bounds}
		h.counts = make([]atomic.Uint64, len(bounds)+1)
		return &metric{h: h}
	}).h
}

// Lookup returns the counter registered under name, or nil. CLIs use it to
// print summary lines without re-declaring help strings.
func (r *Registry) Lookup(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m.c
	}
	return nil
}

// LookupVec returns the counter family registered under name, or nil.
func (r *Registry) LookupVec(name string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m.v
	}
	return nil
}

// Expose writes every family in Prometheus text exposition format, sorted by
// name for stable output.
func (r *Registry) Expose(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	metrics := make([]*metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		metrics = append(metrics, r.byName[n])
	}
	r.mu.Unlock()

	for _, m := range metrics {
		typ := "counter"
		if m.g != nil {
			typ = "gauge"
		} else if m.h != nil {
			typ = "histogram"
		}
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, typ); err != nil {
			return err
		}
		switch {
		case m.c != nil:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value()); err != nil {
				return err
			}
		case m.g != nil:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.g.Value()); err != nil {
				return err
			}
		case m.v != nil:
			m.v.mu.Lock()
			vals := make([]string, 0, len(m.v.kids))
			for val := range m.v.kids {
				vals = append(vals, val)
			}
			sort.Strings(vals)
			kids := make([]uint64, len(vals))
			for i, val := range vals {
				kids[i] = m.v.kids[val].Value()
			}
			label := m.v.label
			m.v.mu.Unlock()
			for i, val := range vals {
				if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", m.name, label, val, kids[i]); err != nil {
					return err
				}
			}
		case m.h != nil:
			var cum uint64
			for i := range m.h.counts {
				cum += m.h.counts[i].Load()
				le := "+Inf"
				if i < len(m.h.bounds) {
					le = fmt.Sprintf("%d", m.h.bounds[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %d\n", m.name, m.h.sum.Load()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count %d\n", m.name, cum); err != nil {
				return err
			}
		}
	}
	return nil
}
