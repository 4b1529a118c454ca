package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("c_total", "ignored"); again != c {
		t.Fatal("re-registration did not return the existing counter")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("faults_total", "faults by class", "class")
	v.With("mpu").Add(3)
	v.With("gate").Inc()
	if v.Value("mpu") != 3 || v.Value("gate") != 1 || v.Value("absent") != 0 {
		t.Fatalf("vec values wrong: mpu=%d gate=%d", v.Value("mpu"), v.Value("gate"))
	}
	if v.Total() != 4 {
		t.Fatalf("vec total = %d, want 4", v.Total())
	}
}

func TestExposeFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "bees").Add(2)
	r.Gauge("a_gauge", "").Set(-3)
	v := r.CounterVec("z_total", "", "mode")
	v.With("mpu").Inc()
	v.With("none").Add(2)
	h := r.Histogram("h_lat", "", []uint64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	var sb strings.Builder
	if err := r.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge\na_gauge -3\n",
		"# HELP b_total bees\n# TYPE b_total counter\nb_total 2\n",
		`z_total{mode="mpu"} 1`,
		`z_total{mode="none"} 2`,
		`h_lat_bucket{le="10"} 1`,
		`h_lat_bucket{le="100"} 2`,
		`h_lat_bucket{le="+Inf"} 3`,
		"h_lat_sum 555",
		"h_lat_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must appear in sorted name order.
	if ai, bi := strings.Index(out, "a_gauge"), strings.Index(out, "b_total"); ai > bi {
		t.Error("exposition not sorted by family name")
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Record(uint64(i*10), KindDispatch, 0, uint16(i), 0)
	}
	if r.Len() != 6 {
		t.Fatalf("Len = %d, want 6", r.Len())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.A != uint16(i+2) {
			t.Fatalf("event %d has A=%d, want %d (oldest-first after wrap)", i, ev.A, i+2)
		}
	}
	d := r.Dump(2)
	if len(d) != 2 || d[1].A != 5 || d[1].Kind != "dispatch" {
		t.Fatalf("Dump(2) = %+v", d)
	}
}

// TestRecorderFaultWindow: the window frozen at the latest fault ends with
// that fault and keeps its events after the ring has wrapped past them.
func TestRecorderFaultWindow(t *testing.T) {
	r := NewRecorder(4)
	r.KeepFaultWindow(3)
	if r.FaultDump() != nil {
		t.Fatal("fault window before any fault")
	}
	r.Record(0, KindDispatch, 0, 0, 0)
	r.Record(10, KindFault, 0, 1, 0)
	for i := 2; i < 5; i++ {
		r.Record(uint64(i*10), KindDispatch, 0, uint16(i), 0)
	}
	r.Record(50, KindFault, 1, 2, 0)
	for i := 6; i < 20; i++ {
		r.Record(uint64(i*10), KindDispatch, 0, uint16(i), 0)
	}
	d := r.FaultDump()
	if len(d) != 3 || d[0].A != 3 || d[1].A != 4 || d[2].Kind != "fault" || d[2].Cycle != 50 {
		t.Fatalf("FaultDump = %+v, want events 3, 4 and the fault at cycle 50", d)
	}
}

func TestRecorderUnbounded(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 1000; i++ {
		r.Record(uint64(i), KindSyscall, 1, 0, 0)
	}
	if len(r.Events()) != 1000 {
		t.Fatalf("unbounded recorder retained %d events", len(r.Events()))
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder(0)
	r.Record(100, KindEventPost, -1, 2, 0)
	r.Record(800, KindDispatch, 0, 2, 0)
	r.Record(810, KindSyscall, 0, 3, 0)
	r.Record(900, KindSyscallRet, 0, 3, 1)
	r.Record(1600, KindDispatchDone, 0, 2, 0)
	r.Record(1700, KindFault, 0, 4, 0)

	var sb strings.Builder
	if err := WriteChromeTrace(&sb, r.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("trace has %d events, want 6", len(doc.TraceEvents))
	}
	// 800 cycles at 8MHz = 100µs.
	if doc.TraceEvents[1].Ph != "B" || doc.TraceEvents[1].Ts != 100 {
		t.Fatalf("dispatch span wrong: %+v", doc.TraceEvents[1])
	}
	if doc.TraceEvents[4].Ph != "E" {
		t.Fatalf("dispatch-done should close the span: %+v", doc.TraceEvents[4])
	}
	if doc.TraceEvents[0].Tid != 0 || doc.TraceEvents[1].Tid != 1 {
		t.Fatal("OS events should land on track 0, app 0 on track 1")
	}
}

func TestCycleHist(t *testing.T) {
	var h CycleHist
	for _, v := range []uint64{0, 64, 65, 100_000_000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Counts[0] != 2 { // 0 and 64 both <= 64
		t.Fatalf("first bucket = %d, want 2", h.Counts[0])
	}
	if h.Counts[len(CycleBounds)] != 1 {
		t.Fatal("overflow sample not in +Inf bucket")
	}
	if h.Max != 100_000_000 || h.Sum != 100_000_129 {
		t.Fatalf("max=%d sum=%d", h.Max, h.Sum)
	}

	var a, b CycleHist
	a.Observe(10)
	b.Observe(2000)
	b.Observe(100_000_000)
	a.Merge(&b)
	if a.Count() != 3 || a.Max != 100_000_000 {
		t.Fatalf("merge wrong: count=%d max=%d", a.Count(), a.Max)
	}
}

func TestCycleHistQuantile(t *testing.T) {
	var h CycleHist
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for i := 0; i < 99; i++ {
		h.Observe(10) // bucket le=64
	}
	h.Observe(5000) // bucket le=16384
	if q := h.Quantile(0.50); q != 64 {
		t.Fatalf("p50 = %d, want 64", q)
	}
	if q := h.Quantile(0.99); q != 64 {
		t.Fatalf("p99 = %d, want 64", q)
	}
	if q := h.Quantile(1.0); q != 16<<10 {
		t.Fatalf("p100 = %d, want bucket bound 16384", q)
	}
	var inf CycleHist
	inf.Observe(1 << 30)
	if q := inf.Quantile(0.99); q != 1<<30 {
		t.Fatalf("+Inf bucket quantile should report Max, got %d", q)
	}
}

func TestServeMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "").Add(9)
	addr, stop, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "served_total 9") {
		t.Fatalf("metrics endpoint missing series:\n%s", body)
	}
	resp2, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint returned %d", resp2.StatusCode)
	}
}

func TestStartProgress(t *testing.T) {
	pr, pw := io.Pipe()
	stop := StartProgress(pw, time.Millisecond, func() string { return "tick" })
	defer stop()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(line) != "tick" {
		t.Fatalf("progress line = %q", line)
	}
	stop()
	stop() // idempotent
}

func TestRate(t *testing.T) {
	if got := Rate(2_000_000, time.Second); got != "2.0M/s" {
		t.Fatalf("Rate = %q", got)
	}
	if got := Rate(500, time.Second); got != "500/s" {
		t.Fatalf("Rate = %q", got)
	}
	if got := Rate(10, 0); got != "0/s" {
		t.Fatalf("Rate with zero interval = %q", got)
	}
}
