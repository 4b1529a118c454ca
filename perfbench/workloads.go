package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"

	"amuletiso"
	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/fleet"
	"amuletiso/internal/fleetd"
	"amuletiso/internal/kernel"
	"amuletiso/internal/obs"
	"amuletiso/internal/torture"
)

// env is what every workload's set-up receives.
type env struct {
	seed    uint64
	workers int    // goroutines doing work: nproc
	workDir string // scratch space for daemon state, inside the checkout
}

// derive returns input seed number stream of the run: the fleet seed, the
// job spec seed and the campaign seed all come from --seed this way, so the
// program under test sees only generated inputs.
func (e env) derive(stream uint64) uint64 {
	x := e.seed*0x9E3779B97F4A7C15 + stream
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x%1_000_000_000 + 1
}

// workload is one named set of inputs.
type workload struct {
	name string
	// setups is how many fresh cold set-ups setup_s takes the median of.
	setups int
	setup  func(ctx context.Context, e env) (*instance, error)
}

// instance is a set-up workload, ready for timed ops.
type instance struct {
	// clients is the number of closed-loop clients issuing ops at once.
	clients int
	// op performs op k and byte-compares its output with the set-up
	// reference. With tr set it records spans.
	op func(ctx context.Context, k int, tr *tracer) error
	// counts holds exact per-op counts taken over the set-up's warm-up,
	// sim_cycles_per_op among them.
	counts map[string]float64
	// replay is the input the traced run's layer replay works from.
	replay replayInput
	close  func()
}

var errMismatch = errors.New("output differs from the set-up reference")

var workloads = map[string]workload{
	"fleet_steady": {name: "fleet_steady", setups: 7, setup: setupFleetSteady},
	"fleetd_churn": {name: "fleetd_churn", setups: 7, setup: setupFleetdChurn},
	// torture_mix's set-up runs the whole pool, several seconds: one sample
	// repeats well enough.
	"torture_mix": {name: "torture_mix", setups: 1, setup: setupTortureMix},
}

func sortedWorkloads() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func workloadNames() string { return strings.Join(sortedWorkloads(), ", ") }

// defaultPolicy is the restart policy fleetd and amuletfleet apply when a
// job names none.
var defaultPolicy = kernel.RestartPolicy{MaxFaults: 3, BackoffMS: 1000}

// encodeJSON encodes v exactly as `amuletfleet -json` and fleetd's report
// endpoint do.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// warmCounts runs fn (a warm-up pass of ops ops) and returns the exact
// per-op counter deltas it produced, with the op's simulated cycles.
func warmCounts(ops int, cycles float64, fn func() error) (map[string]float64, error) {
	c0 := readCounters()
	if err := fn(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	d := counterDelta(c0, readCounters())
	per := func(name string) float64 { return float64(d[name]) / float64(ops) }
	return map[string]float64{
		"sim_cycles_per_op":            cycles,
		"power.brownouts_per_op":       per(obs.MetricBrownouts),
		"power.reboots_per_op":         per(obs.MetricReboots),
		"fleetd.shards_merged_per_op":  per("amulet_fleetd_shards_merged_total"),
		"jit.blocks_compiled_per_op":   per(obs.MetricJITBlocksCompiled),
		"mem.cow_pages_dirtied_per_op": per(obs.MetricPagesDirtied),
		"kernel.dispatches_per_op":     per(obs.MetricDispatches),
		"torture.cases_per_op":         per(obs.MetricTortureCase),
	}, nil
}

// fleetSteadyScenario is fleet_steady's op: the nine-app suite under the MPU
// hybrid, 16 devices worn for 20 s each with a button press every 3 s.
func fleetSteadyScenario(e env) fleet.Scenario {
	policy := defaultPolicy
	return fleet.Scenario{
		Name: "fleet_steady", Apps: amuletiso.Suite(), Mode: cc.ModeMPU,
		DurationMS: 20_000, Devices: 16, Seed: e.derive(1), ButtonEveryMS: 3000,
		Policy: &policy,
	}
}

// runFleet runs one fleet op and encodes its report.
func runFleet(ctx context.Context, r *fleet.Runner, sc fleet.Scenario, tr *tracer, op, parent int) ([]byte, uint64, error) {
	sp := tr.begin(op, parent, "fleet.run")
	rep, err := r.Run(ctx, sc)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin(op, parent, "fleet.encode")
	out, err := encodeJSON(rep)
	tr.end(sp)
	return out, rep.TotalCycles, err
}

// setupFleetSteady builds the firmware and boot template, computes the
// reference report at one worker (reports are byte-identical at any worker
// count), and runs one warm-up op at nproc workers.
func setupFleetSteady(ctx context.Context, e env) (*instance, error) {
	sc := fleetSteadyScenario(e)
	cache := fleet.NewBuildCache()
	ref, cycles, err := runFleet(ctx, &fleet.Runner{Workers: 1, Cache: cache}, sc, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	runner := &fleet.Runner{Workers: e.workers, Cache: cache}
	inst := &instance{clients: 1, close: func() {}}
	inst.op = func(ctx context.Context, k int, tr *tracer) error {
		root := tr.begin(k, 0, "op")
		defer tr.end(root)
		out, _, err := runFleet(ctx, runner, sc, tr, k, root)
		if err == nil && !bytes.Equal(out, ref) {
			err = errMismatch
		}
		return err
	}
	inst.counts, err = warmCounts(1, float64(cycles), func() error { return inst.op(ctx, 0, nil) })
	if err != nil {
		return nil, err
	}
	inst.replay = replayInput{
		scenario: sc, shardDevices: sc.Devices / 2, reference: ref,
		tortureSeed: e.derive(5), tortureCases: oneCaseEach,
		jobs:   []fleetd.JobSpec{fleetSteadyJob(sc), fleetSteadyJob(sc)},
		mirror: []string{"replay.devices", "replay.fleet"},
	}
	return inst, nil
}

// fleetSteadyJob is fleet_steady's scenario as a daemon job.
func fleetSteadyJob(sc fleet.Scenario) fleetd.JobSpec {
	return fleetd.JobSpec{Name: sc.Name, Devices: sc.Devices, DurationMS: sc.DurationMS,
		Seed: sc.Seed, ButtonEveryMS: sc.ButtonEveryMS, ShardDevices: sc.Devices / 2}
}

// churnJob is fleetd_churn's job: three apps on 256 devices that live 3 s
// each and brown out every 400 ms, in shards of 32 devices. A shard takes a
// few tens of milliseconds, well inside the daemon's 500 ms wall-clock
// checkpoint cadence, so a slow run does no more persistence than a fast one.
func churnJob(e env) fleetd.JobSpec {
	return fleetd.JobSpec{
		Name: "fleetd_churn", Apps: []string{"pedometer", "hr", "clock"},
		Devices: 256, DurationMS: 3000, Seed: e.derive(2),
		BrownoutEveryMS: 400, BrownoutOffMS: 100, ShardDevices: 32,
	}
}

// jobScenario is the scenario fleetd runs for a fleet job spec, with the
// daemon's documented defaults (mode MPU, restart policy 3 faults / 1 s).
func jobScenario(spec fleetd.JobSpec) (fleet.Scenario, error) {
	var list []apps.App
	for _, name := range spec.Apps {
		a, ok := amuletiso.AppByName(name)
		if !ok {
			return fleet.Scenario{}, fmt.Errorf("no app %q", name)
		}
		list = append(list, a)
	}
	if len(list) == 0 {
		list = amuletiso.Suite()
	}
	policy := defaultPolicy
	return fleet.Scenario{
		Name: spec.Name, Apps: list, Mode: cc.ModeMPU, DurationMS: spec.DurationMS,
		Devices: spec.Devices, Seed: spec.Seed, ButtonEveryMS: spec.ButtonEveryMS,
		BrownoutEveryMS: spec.BrownoutEveryMS, BrownoutOffMS: spec.BrownoutOffMS,
		Policy: &policy,
	}, nil
}

// daemon is an in-process fleetd behind an httptest server.
type daemon struct {
	srv    *fleetd.Server
	ts     *httptest.Server
	client *jobClient
}

func startDaemon(e env) (*daemon, error) {
	dir, err := os.MkdirTemp(e.workDir, "fleetd-")
	if err != nil {
		return nil, err
	}
	srv := fleetd.NewServer(dir)
	srv.Runner.Workers = e.workers
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	return &daemon{srv: srv, ts: ts,
		client: &jobClient{base: ts.URL, http: ts.Client(), stateDir: dir}}, nil
}

// stop shuts the HTTP server (waiting for open requests), then the
// scheduler, and removes the state directory.
func (d *daemon) stop() {
	d.ts.Close()
	d.srv.Stop()
	removeAll(d.client.stateDir)
}

// daemonJobs is how many ops one daemon serves before fleetd_churn moves to
// a fresh one. fleetd keeps every finished job's stream history and report
// in memory (about 1 MB for this job), so a daemon serving a whole run would
// grow with the number of jobs the run completes, and peak RSS and GC work
// would track throughput instead of the cost of a job.
const daemonJobs = 16

// daemonPool hands op k the daemon serving ops [i*daemonJobs,
// (i+1)*daemonJobs), i = k/daemonJobs, starting it on first use.
type daemonPool struct {
	e    env
	mu   sync.Mutex
	live map[int]*daemon
}

func (p *daemonPool) get(k int) (*daemon, error) {
	i := k / daemonJobs
	p.mu.Lock()
	defer p.mu.Unlock()
	if d := p.live[i]; d != nil {
		return d, nil
	}
	d, err := startDaemon(p.e)
	if err != nil {
		return nil, err
	}
	p.live[i] = d
	// Ops start in index order and each client has one in flight, so every
	// op of daemon i-2 has finished by the time an op of daemon i starts.
	if old := p.live[i-2]; old != nil {
		old.stop()
		delete(p.live, i-2)
	}
	return d, nil
}

func (p *daemonPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, d := range p.live {
		d.stop()
		delete(p.live, i)
	}
}

// setupFleetdChurn starts a fresh daemon, runs the reference job through it,
// checks once that the report is byte-identical to the same scenario run
// directly through fleet.Runner (the daemon's documented contract), and runs
// one warm-up job.
func setupFleetdChurn(ctx context.Context, e env) (*instance, error) {
	spec := churnJob(e)
	pool := &daemonPool{e: e, live: map[int]*daemon{}}
	ok := false
	defer func() {
		if !ok {
			pool.close()
		}
	}()
	d, err := pool.get(0)
	if err != nil {
		return nil, err
	}
	ref, err := d.client.run(ctx, spec, nil, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}
	sc, err := jobScenario(spec)
	if err != nil {
		return nil, err
	}
	direct, cycles, err := runFleet(ctx, &fleet.Runner{Workers: e.workers, Cache: fleet.NewBuildCache()}, sc, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(direct, ref) {
		return nil, fmt.Errorf("daemon report differs from a direct fleet.Runner run of the same scenario")
	}
	inst := &instance{clients: e.workers, close: pool.close}
	inst.op = func(ctx context.Context, k int, tr *tracer) error {
		root := tr.begin(k, 0, "op")
		defer tr.end(root)
		d, err := pool.get(k)
		if err != nil {
			return err
		}
		out, err := d.client.run(ctx, spec, tr, k, root)
		if err == nil && !bytes.Equal(out, ref) {
			err = errMismatch
		}
		return err
	}
	inst.counts, err = warmCounts(1, float64(cycles), func() error { return inst.op(ctx, 0, nil) })
	if err != nil {
		return nil, err
	}
	inst.replay = replayInput{
		scenario: sc, shardDevices: spec.ShardDevices,
		segmentMS: 1000, daemon: true, reference: ref,
		tortureSeed: e.derive(5), tortureCases: oneCaseEach,
		jobs:   []fleetd.JobSpec{spec, spec},
		mirror: []string{"replay.devices", "replay.fleet"},
	}
	ok = true
	return inst, nil
}

// oneCaseEach replays one torture case of every kind.
var oneCaseEach = map[string]int{
	torture.KindDifferential: 1, torture.KindAdversarial: 1, torture.KindHosted: 1, torture.KindBrownout: 1,
}

// tortureKinds is torture_mix's op: one campaign of each kind.
var tortureKinds = []struct {
	kind     string
	programs int
}{
	{torture.KindDifferential, 8},
	{torture.KindAdversarial, 4},
}

// tortureWindows is the size of torture_mix's pool: op k runs window
// k mod tortureWindows, the campaigns' programs [w*n, (w+1)*n). Generated
// programs vary widely in cost (a few take ten times the median), so one
// window's cost depends on the seed; the pool makes a run's cost the mean
// over 1152 programs.
const tortureWindows = 96

// restrictedEvery is the benchmark's restricted-dialect cadence per kind:
// every differential program is written in the paper's restricted Amulet C
// and so compiles under all four isolation models. Unrestricted differential
// programs are left out because about one in 770 of them is a program the
// compiler rejects (the generator gives up after ten candidates over the
// eight-register expression limit) and so fails its campaign.
func restrictedEvery(kind string) int {
	if kind == torture.KindDifferential {
		return 1
	}
	return torture.DefaultConfig(kind).RestrictedEvery
}

func tortureConfig(e env, kind string, programs, window int) torture.Config {
	cfg := torture.DefaultConfig(kind)
	cfg.RestrictedEvery = restrictedEvery(kind)
	cfg.Seed = e.derive(3)
	cfg.Programs = programs
	cfg.First = window * programs
	cfg.Workers = e.workers
	return cfg
}

// runTorture runs one window's campaigns, checks each reports no failed
// program, and returns their encoded reports and the simulated cycles the
// differential campaign accounts.
func runTorture(ctx context.Context, e env, window int, tr *tracer, op, parent int) ([][]byte, uint64, error) {
	var outs [][]byte
	var cycles uint64
	for _, tk := range tortureKinds {
		sp := tr.begin(op, parent, "torture.run."+tk.kind)
		rep, err := torture.Run(ctx, tortureConfig(e, tk.kind, tk.programs, window))
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		if rep.Failed != 0 {
			return nil, 0, fmt.Errorf("%s campaign window %d: %d programs failed", tk.kind, window, rep.Failed)
		}
		for _, c := range rep.ModeCycles {
			cycles += c
		}
		out, err := encodeJSON(rep)
		if err != nil {
			return nil, 0, err
		}
		outs = append(outs, out)
	}
	return outs, cycles, nil
}

// setupTortureMix computes the reference reports of every window in the
// pool; that pass is also the warm-up.
func setupTortureMix(ctx context.Context, e env) (*instance, error) {
	refs := make([][][]byte, tortureWindows)
	cycles := make([]float64, tortureWindows)
	counts, err := warmCounts(tortureWindows, 0, func() error {
		for w := range refs {
			var c uint64
			var err error
			if refs[w], c, err = runTorture(ctx, e, w, nil, 0, 0); err != nil {
				return err
			}
			cycles[w] = float64(c)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A few generated programs run far longer than the rest, so the mean
	// over the pool moves with the seed; the median window's count does not.
	counts["sim_cycles_per_op"] = median(cycles)
	inst := &instance{clients: 1, counts: counts, close: func() {}}
	inst.op = func(ctx context.Context, k int, tr *tracer) error {
		root := tr.begin(k, 0, "op")
		defer tr.end(root)
		w := k % tortureWindows
		outs, _, err := runTorture(ctx, e, w, tr, k, root)
		if err != nil {
			return err
		}
		for i := range outs {
			if !bytes.Equal(outs[i], refs[w][i]) {
				return errMismatch
			}
		}
		return nil
	}
	pedometer, _ := amuletiso.AppByName("pedometer")
	hr, _ := amuletiso.AppByName("hr")
	clock, _ := amuletiso.AppByName("clock")
	policy := defaultPolicy
	sc := fleet.Scenario{Name: "torture_mix-probe", Apps: []apps.App{pedometer, hr, clock},
		Mode: cc.ModeMPU, DurationMS: 3000, Devices: 8, Seed: e.derive(4), Policy: &policy}
	inst.replay = replayInput{
		scenario: sc, shardDevices: sc.Devices / 2,
		tortureSeed: e.derive(3), tortureOpCycles: uint64(cycles[0]),
		tortureCases: map[string]int{
			torture.KindDifferential: tortureKinds[0].programs, torture.KindAdversarial: tortureKinds[1].programs,
			torture.KindHosted: 1, torture.KindBrownout: 1,
		},
		jobs:   []fleetd.JobSpec{tortureJob(e, 0), tortureJob(e, 1)},
		mirror: []string{"replay.torture"},
	}
	return inst, nil
}

// tortureJob is one window of torture_mix's differential campaign as a
// daemon job.
func tortureJob(e env, window int) fleetd.JobSpec {
	n := tortureKinds[0].programs
	every := restrictedEvery(tortureKinds[0].kind)
	return fleetd.JobSpec{Type: fleetd.TypeTorture, Kind: tortureKinds[0].kind,
		Programs: n, First: window * n, Seed: e.derive(3), RestrictedEvery: &every, ShardPrograms: n / 2}
}
