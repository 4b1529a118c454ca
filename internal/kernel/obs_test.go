package kernel

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"amuletiso/internal/abi"
	"amuletiso/internal/aft"
	"amuletiso/internal/cc"
	"amuletiso/internal/obs"
)

// TestTracedRunIsCycleIdentical is the zero-perturbation lock: one script —
// a periodic cross-app attack driving faults and restarts, then brownouts
// and reboots — run with a flight recorder attached and without one must
// leave the same checkpoint bytes (cycles, retired instructions, latency
// histogram, memory, queue and fault log). A recorder observes the kernel
// and never feeds its state.
func TestTracedRunIsCycleIdentical(t *testing.T) {
	for _, mode := range []cc.Mode{cc.ModeMPU, cc.ModeSoftwareOnly} {
		fw, tmpl := checkpointFirmware(t, mode)
		target := fw.Image.MustSym(abi.SymGlobal("counter", "count"))
		run := func(traced bool) []byte {
			var rec *obs.Recorder
			attach := func(k *Kernel) {
				if traced {
					rec = obs.NewRecorder(obs.DefaultRing)
					k.AttachRecorder(rec)
				}
			}
			k := tmpl.NewKernel(7)
			attach(k)
			k.Policy = RestartPolicy{MaxFaults: 3, BackoffMS: 400}
			k.PostPeriodic(2, 3, target, 2300, 1700)
			at := uint64(4500)
			for round := 0; round < 3; round++ {
				k.RunUntil(at)
				tmpl.Brownout(k, at)
				tmpl.Reboot(k, at+700)
				attach(k)
				k.PostPeriodic(2, 3, target, 300, 1700)
				at += 4500
			}
			k.RunUntil(at)
			if traced && rec.Len() == 0 {
				t.Fatalf("%v: traced run recorded no events after the last reboot", mode)
			}
			return ckJSON(t, tmpl.Checkpoint(k))
		}
		if plain, traced := run(false), run(true); !bytes.Equal(plain, traced) {
			t.Fatalf("%v: a recorder changed the checkpoint:\n plain  %s\n traced %s", mode, plain, traced)
		}
	}
}

// TestRecorderCapturesKernelLife asserts the recorder sees every event
// family a normal run produces: posts, dispatch spans, syscall spans, and
// gate crossings.
func TestRecorderCapturesKernelLife(t *testing.T) {
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "counter", Source: counterApp})
	k.AttachRecorder(obs.NewRecorder(obs.DefaultRing))
	k.RunUntil(500)
	kinds := map[obs.Kind]int{}
	for _, ev := range k.Recorder().Events() {
		kinds[ev.Kind]++
	}
	for _, want := range []obs.Kind{
		obs.KindEventPost, obs.KindDispatch, obs.KindDispatchDone,
		obs.KindSyscall, obs.KindSyscallRet, obs.KindGateCross,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %v events recorded (%v)", want, kinds)
		}
	}
	if kinds[obs.KindSyscall] != kinds[obs.KindSyscallRet] {
		t.Errorf("unbalanced syscall spans: %d entries, %d returns",
			kinds[obs.KindSyscall], kinds[obs.KindSyscallRet])
	}
}

// TestRecorderFaultAndRestart drives the restart policy and asserts the
// recorder's fault event carries the fault class and a restart event
// follows.
func TestRecorderFaultAndRestart(t *testing.T) {
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "counter", Source: counterApp})
	k.AttachRecorder(obs.NewRecorder(obs.DefaultRing))
	k.Policy = RestartPolicy{MaxFaults: 3, BackoffMS: 100}
	k.RunUntil(50)
	k.InjectFault(0, "test fault")
	// Scan shortly after the restart fires: gate crossings are chatty enough
	// that a long tail of dispatches would wrap the fault out of the ring —
	// which is exactly why fleet fault dumps are taken at window end, not
	// replayed later.
	k.RunUntil(200)

	var fault, restart *obs.TraceEvent
	for _, ev := range k.Recorder().Events() {
		ev := ev
		switch ev.Kind {
		case obs.KindFault:
			if fault == nil {
				fault = &ev
			}
		case obs.KindRestart:
			restart = &ev
		}
	}
	if fault == nil {
		t.Fatal("no fault event recorded")
	}
	if FaultClass(fault.A) != FaultInjected {
		t.Fatalf("fault event class = %v, want injected", FaultClass(fault.A))
	}
	if restart == nil {
		t.Fatal("no restart event recorded after backoff")
	}
	k.RunUntil(1000)
	if !k.Apps[0].Alive {
		t.Fatal("app did not restart")
	}
}

// TestLatencyHistogram locks the semantics: every delivered event is one
// sample, prompt deliveries score near zero, and an event queued behind a
// same-millisecond handler scores that handler's backlog.
func TestLatencyHistogram(t *testing.T) {
	k := build(t, cc.ModeMPU,
		aft.AppSource{Name: "a", Source: counterApp},
		aft.AppSource{Name: "b", Source: counterApp})
	delivered := k.RunUntil(1000)
	if got := k.Latency.Count(); got != uint64(delivered) {
		t.Fatalf("latency samples = %d, delivered events = %d", got, delivered)
	}
	// Both apps arm timers at the same milliseconds: whichever event of each
	// due pair runs second waited through the first's whole handler, so the
	// histogram cannot be all-zero.
	if k.Latency.Max == 0 {
		t.Fatal("two same-ms apps produced no queueing latency at all")
	}
	if k.Latency.Sum == 0 {
		t.Fatal("latency sum is zero despite nonzero max")
	}
}

// TestChromeTraceExport runs a real workload under an unbounded recorder and
// checks the export is valid Chrome trace JSON with balanced dispatch spans.
func TestChromeTraceExport(t *testing.T) {
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "counter", Source: counterApp})
	k.AttachRecorder(obs.NewRecorder(0))
	k.RunUntil(1000)

	var sb strings.Builder
	if err := obs.WriteChromeTrace(&sb, k.Recorder().Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	begins, ends := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "B":
			begins++
		case "E":
			ends++
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("unbalanced spans: %d B, %d E", begins, ends)
	}
}

// TestLatencyDeterministicAcrossBatching locks the nowCycles bookkeeping: a
// RunBatch loop must produce the same latency histogram as one RunUntil.
func TestLatencyDeterministicAcrossBatching(t *testing.T) {
	mk := func() *Kernel {
		return build(t, cc.ModeMPU,
			aft.AppSource{Name: "a", Source: counterApp},
			aft.AppSource{Name: "hr", Source: hrApp})
	}
	whole := mk()
	whole.RunUntil(3000)

	batched := mk()
	for {
		if _, more := batched.RunBatch(3000, 3); !more {
			break
		}
	}
	if whole.Latency != batched.Latency {
		t.Fatalf("latency differs across delivery APIs:\n  RunUntil: %+v\n  RunBatch: %+v",
			whole.Latency, batched.Latency)
	}
}
