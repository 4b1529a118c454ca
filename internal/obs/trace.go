package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Kind classifies a flight-recorder event.
type Kind uint8

// Flight-recorder event kinds. A and B in TraceEvent carry kind-specific
// payloads noted per constant.
const (
	KindEventPost    Kind = iota + 1 // A=event code, B=arg
	KindDispatch                     // A=event code, B=arg
	KindDispatchDone                 // A=event code
	KindSyscall                      // A=syscall number
	KindSyscallRet                   // A=syscall number, B=result
	KindGateCross                    // MPU reconfiguration (privilege-domain change)
	KindFault                        // A=FaultClass ordinal
	KindRestart                      // B=restart count
)

var kindNames = [...]string{
	KindEventPost:    "event-post",
	KindDispatch:     "dispatch",
	KindDispatchDone: "dispatch-done",
	KindSyscall:      "syscall",
	KindSyscallRet:   "syscall-ret",
	KindGateCross:    "gate-cross",
	KindFault:        "fault",
	KindRestart:      "restart",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// TraceEvent is one cycle-stamped flight-recorder entry. It is deliberately
// 16 bytes: a 256-entry ring costs 4KiB per device.
type TraceEvent struct {
	Cycle uint64
	Kind  Kind
	App   int16 // app index, -1 for OS-level events
	A, B  uint16
}

// Recorder is a per-device flight recorder. With a positive capacity it is a
// fixed-size ring keeping the most recent events; with capacity <= 0 it
// appends without bound (full-run export for `amuletsim -trace`).
//
// A Recorder is single-goroutine like the kernel that owns it; it needs no
// locking.
type Recorder struct {
	ring []TraceEvent
	all  []TraceEvent // unbounded mode
	n    uint64       // total events ever recorded (ring write cursor mod len)

	// keep > 0 makes every KindFault event copy the last keep events, the
	// fault included, into fault: the window FaultDump returns.
	keep  int
	fault []TraceEvent
}

// NewRecorder returns a recorder with the given ring capacity, or an
// unbounded recorder when size <= 0.
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		return &Recorder{}
	}
	return &Recorder{ring: make([]TraceEvent, size)}
}

// Record appends one event.
func (r *Recorder) Record(cycle uint64, kind Kind, app int16, a, b uint16) {
	ev := TraceEvent{Cycle: cycle, Kind: kind, App: app, A: a, B: b}
	if r.ring == nil {
		r.all = append(r.all, ev)
		r.n++
		return
	}
	r.ring[r.n%uint64(len(r.ring))] = ev
	r.n++
	if kind == KindFault && r.keep > 0 {
		r.fault = r.last(r.keep, r.fault[:0])
	}
}

// KeepFaultWindow makes the recorder freeze, at every fault it records, the
// last n events ending with that fault, so FaultDump can return the window
// of the latest fault however many events follow it.
func (r *Recorder) KeepFaultWindow(n int) {
	r.keep = n
}

// last appends the last (at most) n ring events to dst, oldest first.
func (r *Recorder) last(n int, dst []TraceEvent) []TraceEvent {
	size := uint64(len(r.ring))
	k := min(uint64(n), r.n, size)
	for i := r.n - k; i < r.n; i++ {
		dst = append(dst, r.ring[i%size])
	}
	return dst
}

// Len returns the total number of events ever recorded.
func (r *Recorder) Len() uint64 { return r.n }

// Events returns the recorded events in order, oldest first. For a ring that
// has wrapped, only the retained window is returned.
func (r *Recorder) Events() []TraceEvent {
	if r.ring == nil {
		return r.all
	}
	cap64 := uint64(len(r.ring))
	if r.n <= cap64 {
		out := make([]TraceEvent, r.n)
		copy(out, r.ring[:r.n])
		return out
	}
	out := make([]TraceEvent, cap64)
	start := r.n % cap64
	copy(out, r.ring[start:])
	copy(out[cap64-start:], r.ring[:start])
	return out
}

// DumpEvent is the JSON-friendly form of a TraceEvent, used in fault dumps
// embedded in fleet results.
type DumpEvent struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	App   int16  `json:"app"`
	A     uint16 `json:"a,omitempty"`
	B     uint16 `json:"b,omitempty"`
}

// Dump returns the last (at most) n events as JSON-friendly records, oldest
// first.
func (r *Recorder) Dump(n int) []DumpEvent {
	evs := r.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return dumpEvents(evs)
}

// FaultDump returns the window KeepFaultWindow froze at the latest recorded
// fault, ending with that fault's event — the post-mortem window — or nil
// when no fault was recorded.
func (r *Recorder) FaultDump() []DumpEvent {
	if len(r.fault) == 0 {
		return nil
	}
	return dumpEvents(r.fault)
}

func dumpEvents(evs []TraceEvent) []DumpEvent {
	out := make([]DumpEvent, len(evs))
	for i, ev := range evs {
		out[i] = DumpEvent{Cycle: ev.Cycle, Kind: ev.Kind.String(), App: ev.App, A: ev.A, B: ev.B}
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event JSON array format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// cyclesPerMicro converts simulated cycles to trace microseconds at the
// simulated 8MHz clock, so trace timestamps read as device real time.
const cyclesPerMicro = 8.0

// WriteChromeTrace renders a full event stream as Chrome trace-event JSON
// (loadable in chrome://tracing or Perfetto). Dispatch and syscall windows
// become duration (B/E) spans on a per-app track; posts, gate crossings,
// faults and restarts become instants.
func WriteChromeTrace(w io.Writer, evs []TraceEvent) error {
	out := make([]chromeEvent, 0, len(evs))
	tid := func(app int16) int { return int(app) + 1 } // OS (-1) on track 0
	for _, ev := range evs {
		ce := chromeEvent{
			Ts:  float64(ev.Cycle) / cyclesPerMicro,
			Pid: 1,
			Tid: tid(ev.App),
			Args: map[string]any{
				"cycle": ev.Cycle, "a": ev.A, "b": ev.B,
			},
		}
		switch ev.Kind {
		case KindDispatch:
			ce.Name, ce.Ph = fmt.Sprintf("dispatch ev=%d", ev.A), "B"
		case KindDispatchDone:
			ce.Name, ce.Ph = fmt.Sprintf("dispatch ev=%d", ev.A), "E"
		case KindSyscall:
			ce.Name, ce.Ph = fmt.Sprintf("sys %d", ev.A), "B"
		case KindSyscallRet:
			ce.Name, ce.Ph = fmt.Sprintf("sys %d", ev.A), "E"
		default:
			ce.Name, ce.Ph, ce.S = ev.Kind.String(), "i", "t"
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out, "displayTimeUnit": "ms"})
}
