package kernel

import (
	"testing"

	"amuletiso/internal/abi"
	"amuletiso/internal/aft"
	"amuletiso/internal/cc"
)

const counterApp = `
int count = 0;
void handle_event(int ev, int arg) {
    if (ev == 0) {                 // init
        amulet_set_timer(100);
        return;
    }
    if (ev == 1) {                 // timer
        count++;
        amulet_log_value(7, count);
        amulet_set_timer(100);
    }
}
`

const hrApp = `
int last = 0;
void handle_event(int ev, int arg) {
    if (ev == 0) {
        amulet_subscribe(1, 250);  // HR sensor every 250 ms
        return;
    }
    if (ev == 2 && arg == 1) {
        last = amulet_read_hr();
        amulet_log_value(2, last);
    }
}
`

// victimApp holds a canary that attack tests try to smash.
const victimApp = `
int canary = 0x600D;
void handle_event(int ev, int arg) {
    if (canary != 0x600D) { amulet_log_value(9, 1); }
}
`

// evilApp (full dialect): on event 3, writes 0x0BAD through a forged
// pointer; arg carries the target address.
const evilApp = `
void handle_event(int ev, int arg) {
    if (ev == 3) {
        int *p = 0;
        uint a = arg;
        p = p + (a >> 1);
        *p = 0x0BAD;
    }
}
`

// evilRestricted: the Amulet C variant forges an out-of-bounds array index
// instead (arg = element index relative to buf).
const evilRestricted = `
int buf[2];
void handle_event(int ev, int arg) {
    if (ev == 3) {
        int i = arg;
        buf[i] = 0x0BAD;
    }
}
`

func build(t *testing.T, mode cc.Mode, apps ...aft.AppSource) *Kernel {
	t.Helper()
	fw, err := aft.Build(apps, mode)
	if err != nil {
		t.Fatalf("[%v] build: %v", mode, err)
	}
	return New(fw)
}

func TestTimerDrivenApp(t *testing.T) {
	for _, mode := range cc.Modes {
		k := build(t, mode, aft.AppSource{Name: "counter", Source: counterApp})
		k.RunUntil(1050)
		app := &k.Apps[0]
		if !app.Alive {
			t.Fatalf("[%v] app died: %+v", mode, k.Faults)
		}
		// init + 10 timer events by t=1050 (timers at 100,200,...,1000).
		if len(app.LogValues) != 10 {
			t.Fatalf("[%v] %d log values, want 10", mode, len(app.LogValues))
		}
		last := app.LogValues[len(app.LogValues)-1]
		if last.Tag != 7 || last.Value != 10 {
			t.Fatalf("[%v] last log = %+v", mode, last)
		}
		if app.Dispatches != 11 {
			t.Errorf("[%v] dispatches = %d, want 11", mode, app.Dispatches)
		}
		if k.GateCount() == 0 {
			t.Errorf("[%v] gate counter did not move", mode)
		}
	}
}

func TestSensorSubscription(t *testing.T) {
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "hr", Source: hrApp})
	k.RunUntil(2000)
	app := &k.Apps[0]
	if !app.Alive {
		t.Fatalf("app died: %+v", k.Faults)
	}
	if len(app.LogValues) < 7 {
		t.Fatalf("only %d HR samples", len(app.LogValues))
	}
	for _, v := range app.LogValues {
		if v.Value < 40 || v.Value > 200 {
			t.Fatalf("implausible HR %d", v.Value)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		k := build(t, cc.ModeMPU,
			aft.AppSource{Name: "counter", Source: counterApp},
			aft.AppSource{Name: "hr", Source: hrApp})
		k.RunUntil(3000)
		return k.CPU.Cycles, k.Apps[0].Cycles + k.Apps[1].Cycles
	}
	c1, a1 := run()
	c2, a2 := run()
	if c1 != c2 || a1 != a2 {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d", c1, a1, c2, a2)
	}
}

// attack launches the forged-write scenario under one mode and reports
// whether the canary survived and whether the evil app faulted.
func attack(t *testing.T, mode cc.Mode) (canaryIntact, evilFaulted bool) {
	t.Helper()
	evil := aft.AppSource{Name: "evil", Source: evilApp, RestrictedSource: evilRestricted}
	victim := aft.AppSource{Name: "victim", Source: victimApp}
	k := build(t, mode, evil, victim) // victim above evil in memory
	canaryAddr := k.FW.Image.MustSym(abi.SymGlobal("victim", "canary"))

	arg := canaryAddr
	if mode == cc.ModeFeatureLimited {
		bufAddr := k.FW.Image.MustSym(abi.SymGlobal("evil", "buf"))
		arg = (canaryAddr - bufAddr) / 2
	}
	k.Post(0, 3, arg, 10)
	k.RunUntil(100)
	return k.Bus.Peek16(canaryAddr) == 0x600D, k.Apps[0].Faults > 0
}

func TestCrossAppWriteBlocked(t *testing.T) {
	for _, mode := range []cc.Mode{cc.ModeMPU, cc.ModeSoftwareOnly, cc.ModeFeatureLimited} {
		intact, faulted := attack(t, mode)
		if !intact {
			t.Errorf("[%v] canary smashed", mode)
		}
		if !faulted {
			t.Errorf("[%v] evil app not faulted", mode)
		}
	}
}

func TestNoIsolationAllowsCorruption(t *testing.T) {
	// The baseline's whole point: without isolation the write lands.
	intact, faulted := attack(t, cc.ModeNoIsolation)
	if intact {
		t.Error("canary unexpectedly survived under NoIsolation")
	}
	if faulted {
		t.Error("NoIsolation faulted the app")
	}
}

func TestOSDataProtectedFromApps(t *testing.T) {
	// Writing an OS variable (below the app) must be blocked by the
	// compiler's lower-bound check in MPU mode.
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "evil", Source: evilApp})
	target := k.FW.Vars.GateCount
	before := k.Bus.Peek16(target)
	k.Post(0, 3, target, 10)
	k.RunUntil(100)
	if k.Bus.Peek16(target) == 0x0BAD {
		t.Fatal("OS data overwritten")
	}
	if k.Apps[0].Faults == 0 {
		t.Fatal("no fault recorded")
	}
	_ = before
}

func TestStackOverflowCaughtByMPU(t *testing.T) {
	overflow := `
int deep(int n) {
    int pad[16];
    pad[0] = n;
    return deep(n + 1) + pad[0];
}
void handle_event(int ev, int arg) {
    if (ev == 3) { deep(0); }
}
`
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "boom", Source: overflow})
	k.Post(0, 3, 0, 10)
	k.RunUntil(100)
	if k.Apps[0].Faults == 0 {
		t.Fatal("stack overflow not caught")
	}
	// The app code segment (execute-only) must be unharmed: the MPU blocks
	// before the write lands.
	if len(k.Faults) == 0 {
		t.Fatal("no fault record")
	}
}

func TestRestartPolicy(t *testing.T) {
	k := build(t, cc.ModeMPU,
		aft.AppSource{Name: "evil", Source: evilApp},
		aft.AppSource{Name: "victim", Source: victimApp})
	k.Policy = RestartPolicy{MaxFaults: 2, BackoffMS: 500}
	canary := k.FW.Image.MustSym(abi.SymGlobal("victim", "canary"))

	k.Post(0, 3, canary, 10) // fault #1
	k.RunUntil(100)
	if k.Apps[0].Alive {
		t.Fatal("app alive right after fault")
	}
	k.RunUntil(700) // past backoff: restart wake-up delivers EvInit
	if !k.Apps[0].Alive {
		t.Fatal("app not restarted after backoff")
	}
	k.Post(0, 3, canary, 10) // fault #2 (at limit)
	k.RunUntil(800)
	k.RunUntil(2000)
	k.Post(0, 3, canary, 10) // would be fault #3 — app must stay dead
	k.RunUntil(3000)
	if k.Apps[0].Faults > k.Policy.MaxFaults+1 {
		t.Fatalf("app kept faulting: %d", k.Apps[0].Faults)
	}
}

// buildSeeded mirrors build with an explicit noise seed.
func buildSeeded(t *testing.T, mode cc.Mode, seed uint32, apps ...aft.AppSource) *Kernel {
	t.Helper()
	fw, err := aft.Build(apps, mode)
	if err != nil {
		t.Fatalf("[%v] build: %v", mode, err)
	}
	return NewSeeded(fw, seed)
}

func TestSeededKernelsDeterministicAndDecorrelated(t *testing.T) {
	hr := aft.AppSource{Name: "hr", Source: hrApp}
	run := func(seed uint32) []TaggedValue {
		k := buildSeeded(t, cc.ModeMPU, seed, hr)
		k.RunUntil(2000)
		if !k.Apps[0].Alive {
			t.Fatalf("seed %d: app died: %+v", seed, k.Faults)
		}
		return k.Apps[0].LogValues
	}
	a1, a2, b := run(7), run(7), run(8)
	if len(a1) != len(a2) {
		t.Fatalf("same seed, different sample counts: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at sample %d: %+v vs %+v", i, a1[i], a2[i])
		}
	}
	differs := false
	for i := range a1 {
		if i < len(b) && a1[i].Value != b[i].Value {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("different seeds produced identical HR streams")
	}
	// Seed 0 must preserve New's historical defaults.
	k0 := buildSeeded(t, cc.ModeMPU, 0, hr)
	kd := build(t, cc.ModeMPU, hr)
	k0.RunUntil(2000)
	kd.RunUntil(2000)
	if k0.CPU.Cycles != kd.CPU.Cycles {
		t.Error("NewSeeded(fw, 0) differs from New(fw)")
	}
}

func TestInjectFaultRunsRestartPolicy(t *testing.T) {
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "counter", Source: counterApp})
	k.Policy = RestartPolicy{MaxFaults: 1, BackoffMS: 300}
	k.RunUntil(50)
	k.InjectFault(0, "test: synthetic")
	if k.Apps[0].Alive {
		t.Fatal("app alive right after injected fault")
	}
	if len(k.Faults) != 1 || k.Faults[0].Reason != "test: synthetic" {
		t.Fatalf("fault records = %+v", k.Faults)
	}
	// Dead until the backoff elapses, restarted after.
	k.RunUntil(340)
	if k.Apps[0].Alive {
		t.Fatal("app restarted before backoff elapsed")
	}
	k.RunUntil(400)
	if !k.Apps[0].Alive {
		t.Fatal("app not restarted after backoff")
	}
	// Second fault exceeds MaxFaults: dead for good, and further injections
	// are no-ops.
	k.InjectFault(0, "test: synthetic")
	k.RunUntil(2000)
	if k.Apps[0].Alive {
		t.Fatal("app restarted past MaxFaults")
	}
	k.InjectFault(0, "test: on a dead app")
	if len(k.Faults) != 2 {
		t.Fatalf("dead app collected a fault: %+v", k.Faults)
	}
	// Out-of-range targets are ignored.
	k.InjectFault(-1, "bogus")
	k.InjectFault(9, "bogus")
	if len(k.Faults) != 2 {
		t.Fatalf("out-of-range injection recorded: %+v", k.Faults)
	}
}

func TestRestartBackoffKillsOnZeroMaxFaults(t *testing.T) {
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "counter", Source: counterApp})
	k.Policy = RestartPolicy{MaxFaults: 0, BackoffMS: 100}
	k.RunUntil(50)
	k.InjectFault(0, "test: first and fatal")
	k.RunUntil(5000)
	if k.Apps[0].Alive {
		t.Fatal("MaxFaults=0 must mean first fault kills")
	}
	if k.Apps[0].Faults != 1 {
		t.Fatalf("faults = %d, want 1", k.Apps[0].Faults)
	}
}

func TestPostPeriodic(t *testing.T) {
	// The counter app logs on event 1; drive it via a periodic external
	// timer instead of its own amulet_set_timer chain.
	silent := `
int count = 0;
void handle_event(int ev, int arg) {
    if (ev == 1) { count++; amulet_log_value(7, count); }
}
`
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "tick", Source: silent})
	k.PostPeriodic(0, 1, 0, 200, 200)
	k.RunUntil(1100)
	if got := len(k.Apps[0].LogValues); got != 5 {
		t.Fatalf("periodic event delivered %d times, want 5", got)
	}
}

func TestPeriodicScheduleSurvivesRestartBackoff(t *testing.T) {
	silent := `
int count = 0;
void handle_event(int ev, int arg) {
    if (ev == 1) { count++; amulet_log_value(7, count); }
}
`
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "tick", Source: silent})
	k.Policy = RestartPolicy{MaxFaults: 3, BackoffMS: 1000}
	k.PostPeriodic(0, 1, 0, 200, 200)
	k.RunUntil(250)
	k.InjectFault(0, "test: synthetic")
	k.RunUntil(5000)
	if !k.Apps[0].Alive {
		t.Fatal("app not restarted")
	}
	// Deliveries at 200, then none during backoff (250..1250), then the
	// schedule resumes: roughly (5000-1250)/200 more. The bug this guards
	// against delivered exactly once and never again.
	if got := len(k.Apps[0].LogValues); got < 15 {
		t.Fatalf("periodic schedule died across restart: %d deliveries", got)
	}
	// A permanently dead app's schedule must drain, not re-arm forever.
	k2 := build(t, cc.ModeMPU, aft.AppSource{Name: "tick", Source: silent})
	k2.Policy = RestartPolicy{MaxFaults: 0}
	k2.PostPeriodic(0, 1, 0, 200, 200)
	k2.RunUntil(250)
	k2.InjectFault(0, "test: fatal")
	k2.RunUntil(2000)
	if k2.Pending() != 0 {
		t.Fatalf("dead app still has %d queued events", k2.Pending())
	}
}

func TestPeriodicScheduleSurvivesFaultingDelivery(t *testing.T) {
	// The periodic delivery itself faults (once): the schedule must re-arm
	// through the restart, not die with the event that crashed.
	trap := `
int inits = 0;
int count = 0;
void handle_event(int ev, int arg) {
    if (ev == 1) {
        if (inits < 2) {
            int *p = 0;
            uint a = 0x1C00;
            p = p + (a >> 1);
            *p = 0x0BAD;       // first delivery: isolation fault
        }
        count++;
        amulet_log_value(7, count);
    }
    if (ev == 0) { inits++; }  // the restart's EvInit disarms the trap
}
`
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "trap", Source: trap})
	k.Policy = RestartPolicy{MaxFaults: 3, BackoffMS: 300}
	k.PostPeriodic(0, 1, 0, 200, 200)
	k.RunUntil(3000)
	if !k.Apps[0].Alive {
		t.Fatalf("app not restarted: %+v", k.Faults)
	}
	if k.Apps[0].Faults != 1 {
		t.Fatalf("faults = %d, want 1", k.Apps[0].Faults)
	}
	// Delivery at 200 faults; restart at 500; schedule resumes and delivers
	// roughly (3000-500)/200 times after the trap disarms.
	if got := len(k.Apps[0].LogValues); got < 10 {
		t.Fatalf("schedule died with its faulting delivery: %d logs", got)
	}
}

func TestEventQueueOrdering(t *testing.T) {
	// Events posted out of order must pop in (Due, seq) order.
	var q eventQueue
	push := func(due uint64) { q.push(Event{Due: due, seq: uint64(q.Len())}) }
	for _, due := range []uint64{50, 10, 40, 10, 30, 0, 20} {
		push(due)
	}
	var last Event
	for i := 0; q.Len() > 0; i++ {
		e := q.pop()
		if i > 0 && (e.Due < last.Due || (e.Due == last.Due && e.seq < last.seq)) {
			t.Fatalf("heap order violated: %+v after %+v", e, last)
		}
		last = e
	}
}

func TestWatchdogCatchesRunaway(t *testing.T) {
	runaway := `
void handle_event(int ev, int arg) {
    if (ev == 3) { while (1) { arg++; } }
}
`
	k := build(t, cc.ModeNoIsolation, aft.AppSource{Name: "spin", Source: runaway})
	k.Post(0, 3, 0, 10)
	k.RunUntil(100)
	if k.Apps[0].Faults == 0 {
		t.Fatal("watchdog did not fire")
	}
	if k.Faults[0].Reason == "" {
		t.Fatal("empty fault reason")
	}
}

func TestDisplayAndLogServices(t *testing.T) {
	app := `
char msg[6] = "hello";
void handle_event(int ev, int arg) {
    if (ev == 0) {
        amulet_display_clear();
        amulet_display_text(msg, 5, 1);
        amulet_log_write(msg, 5);
    }
}
`
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "ui", Source: app})
	k.RunUntil(10)
	if k.Display.Rows[1] != "hello" {
		t.Fatalf("display row = %q", k.Display.Rows[1])
	}
	if string(k.Apps[0].Log) != "hello" {
		t.Fatalf("log = %q", k.Apps[0].Log)
	}
}

func TestGatePointerValidationBlocksForgedAPIPointer(t *testing.T) {
	// Passing an out-of-segment pointer to a pointer-taking API must be
	// caught by the gate's validation under SoftwareOnly.
	forged := `
void handle_event(int ev, int arg) {
    if (ev == 3) {
        char *p = 0;
        uint a = arg;
        p = p + a;
        amulet_log_write(p, 4);     // leak another app's memory
    }
}
`
	for _, mode := range []cc.Mode{cc.ModeSoftwareOnly, cc.ModeMPU} {
		k := build(t, mode,
			aft.AppSource{Name: "spy", Source: forged},
			aft.AppSource{Name: "victim", Source: victimApp})
		secret := k.FW.Image.MustSym(abi.SymGlobal("victim", "canary"))
		target := secret
		if mode == cc.ModeMPU {
			// MPU gates check only the lower bound; aim below the app.
			target = 0x1C00
		}
		k.Post(0, 3, target, 10)
		k.RunUntil(100)
		if k.Apps[0].Faults == 0 {
			t.Errorf("[%v] forged API pointer not caught", mode)
		}
		if len(k.Apps[0].Log) != 0 {
			t.Errorf("[%v] log captured %d bytes", mode, len(k.Apps[0].Log))
		}
	}
}

func TestButtonEvents(t *testing.T) {
	buttonApp := `
int presses = 0;
void handle_event(int ev, int arg) {
    if (ev == 0) { amulet_subscribe(4, 0); return; }   // button sensor
    if (ev == 3) { presses++; amulet_log_value(1, presses); }
}
`
	k := build(t, cc.ModeMPU, aft.AppSource{Name: "btn", Source: buttonApp})
	k.RunUntil(10) // init: subscribe
	k.InjectButton(1)
	k.InjectButton(2)
	k.RunUntil(100)
	if got := len(k.Apps[0].LogValues); got != 2 {
		t.Fatalf("logged %d presses, want 2", got)
	}
	if k.Apps[0].LogValues[1].Value != 2 {
		t.Fatalf("press counter = %d", k.Apps[0].LogValues[1].Value)
	}
}

func TestSensorsDeterministicAndPlausible(t *testing.T) {
	s1 := NewSensors(42)
	s2 := NewSensors(42)
	for _, tms := range []uint64{0, 1000, 60_000, 3_600_000} {
		for axis := 0; axis < 3; axis++ {
			if s1.Accel(axis, tms) != s2.Accel(axis, tms) {
				t.Fatal("accel not deterministic")
			}
		}
		if s1.HR(tms) != s2.HR(tms) || s1.Temp(tms) != s2.Temp(tms) {
			t.Fatal("sensors not deterministic")
		}
	}
	if s1.Battery(0) != 100 {
		t.Fatal("battery should start full")
	}
	if s1.Battery(14*24*3600*1000) > 1 {
		t.Fatal("battery should drain over two weeks")
	}
	if s1.Steps(0) != 0 {
		t.Fatal("steps should start at zero")
	}
	if s1.Steps(20*60*1000) == 0 {
		t.Fatal("no steps after a walk phase")
	}
}
