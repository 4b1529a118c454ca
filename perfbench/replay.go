package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"amuletiso/internal/aft"
	"amuletiso/internal/cc"
	"amuletiso/internal/fleet"
	"amuletiso/internal/fleetd"
	"amuletiso/internal/kernel"
	"amuletiso/internal/mem"
	"amuletiso/internal/obs"
	"amuletiso/internal/torture"
)

// replayInput is what the traced run replays through the layers' public
// entry points. Every workload replays every layer, so each per-layer metric
// is measured on each workload; mirror names the replay sections that
// repeat the op's own work, and only those count toward the op's layer
// shares.
type replayInput struct {
	scenario fleet.Scenario
	// shardDevices cuts the scenario into the shards the fleet section runs
	// and merges.
	shardDevices int
	// segmentMS is the virtual-time interval of the op's mid-shard device
	// checkpoints (0 = the op takes none).
	segmentMS uint64
	// daemon marks an op that streams and persists the merge after every
	// shard, as fleetd does.
	daemon bool
	// reference is the op's report of the scenario; the merged shards must
	// equal it (nil = the op has no such report).
	reference []byte
	// tortureSeed and tortureCases name the torture cases replayed: cases
	// [0, n) of a campaign with that seed, per kind.
	tortureSeed  uint64
	tortureCases map[string]int
	// tortureOpCycles is the op's differential campaign cycles over the same
	// cases (torture_mix), which the replay's cycles are checked against.
	tortureOpCycles uint64
	jobs            []fleetd.JobSpec
	mirror          []string
}

// replayStats are the replay's counts.
type replayStats struct {
	ccBytes, ccPrograms    uint64
	devices, events        uint64
	instr, cpuCycles       uint64
	appCycles              uint64 // kernel-accounted app cycles, as reports count them
	probed, dirtyPages     uint64
	checkpointBytes        uint64
	tortureCycles          uint64
	reportBytes            int
	scaling                float64
	mirrorCycles, opCycles uint64
}

var tortureKindOrder = []string{torture.KindDifferential, torture.KindAdversarial, torture.KindHosted, torture.KindBrownout}

// caseSeed mirrors the torture campaign's derivation of case i's seed, so
// the replay builds exactly the op's cases; trace.replay_cycle_ratio moves
// away from 1 on torture_mix if the derivation changes.
func caseSeed(campaignSeed uint64, i int) uint64 {
	x := campaignSeed + uint64(i) + 1 + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	if x ^= x >> 31; x == 0 {
		return 0xA5A5A5A5A5A5A5A5
	}
	return x
}

// caseModes are the isolation models a standalone case runs under, as the
// torture campaign picks them.
func caseModes(c *torture.Case) []cc.Mode {
	switch {
	case c.Kind == torture.KindDifferential && c.Restricted:
		return []cc.Mode{cc.ModeNoIsolation, cc.ModeFeatureLimited, cc.ModeMPU, cc.ModeSoftwareOnly}
	case c.Kind == torture.KindDifferential:
		return []cc.Mode{cc.ModeNoIsolation, cc.ModeMPU, cc.ModeSoftwareOnly}
	case c.Restricted:
		return []cc.Mode{cc.ModeFeatureLimited, cc.ModeMPU, cc.ModeSoftwareOnly}
	default:
		return []cc.Mode{cc.ModeMPU, cc.ModeSoftwareOnly}
	}
}

// restrictedCase reports whether case i of a campaign of the given kind is
// in the restricted dialect, as the benchmark's campaigns choose.
func restrictedCase(kind string, i int) bool {
	every := restrictedEvery(kind)
	return kind != torture.KindHosted && kind != torture.KindBrownout && every > 0 && i%every == 0
}

// replay runs every layer once through its public entry points.
func replay(ctx context.Context, e env, in replayInput, tr *tracer) (*replayStats, error) {
	st := &replayStats{}
	if err := replayTorture(in, tr, st); err != nil {
		return nil, err
	}
	root := tr.begin(-1, 0, "replay.build")
	sp := tr.begin(-1, root, "aft.build")
	var srcs []aft.AppSource
	for _, a := range in.scenario.Apps {
		srcs = append(srcs, a.AFT())
	}
	fw, err := aft.Build(srcs, in.scenario.Mode)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(-1, root, "kernel.template")
	tmpl := kernel.NewBootTemplate(fw)
	tr.end(sp)
	tr.end(root)

	if err := replayDevices(in, tmpl, tr, st); err != nil {
		return nil, err
	}
	if err := replayFleet(ctx, e, in, tr, st); err != nil {
		return nil, err
	}
	if err := replayDaemon(ctx, e, in, tr); err != nil {
		return nil, err
	}
	if in.tortureOpCycles > 0 {
		st.mirrorCycles, st.opCycles = st.tortureCycles, in.tortureOpCycles
	} else {
		st.mirrorCycles = st.appCycles
	}
	if st.mirrorCycles != st.opCycles {
		logf("replay: simulated cycles %d vs the op's %d (ratio %.4f): the replay does not reproduce "+
			"the op's private details (button sequence, power-model timing) exactly",
			st.mirrorCycles, st.opCycles, float64(st.mirrorCycles)/float64(st.opCycles))
	}
	return st, nil
}

// replayTorture builds the cases, compiles and runs the standalone ones under
// each mode (the work a differential or adversarial case does), and then
// executes every case through the torture oracle.
func replayTorture(in replayInput, tr *tracer, st *replayStats) error {
	var cases []*torture.Case
	root := tr.begin(-1, 0, "replay.torture")
	for _, kind := range tortureKindOrder {
		for i := 0; i < in.tortureCases[kind]; i++ {
			sp := tr.begin(-1, root, "torture.gen")
			c := torture.BuildCase(kind, caseSeed(in.tortureSeed, i), restrictedCase(kind, i))
			tr.end(sp)
			cases = append(cases, c)
			if kind != torture.KindDifferential && kind != torture.KindAdversarial {
				continue
			}
			for _, mode := range caseModes(c) {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				sp = tr.begin(-1, root, "cc.compile")
				p, err := cc.CompileProgram("t", c.Source, cc.ProgramOptions{Mode: mode, EnableMPU: mode == cc.ModeMPU})
				tr.end(sp)
				runtime.ReadMemStats(&m1)
				if err != nil {
					return fmt.Errorf("%s case %d: %w", kind, i, err)
				}
				st.ccBytes += m1.TotalAlloc - m0.TotalAlloc
				st.ccPrograms++
				sp = tr.begin(-1, root, "cpu.run")
				m := p.Load()
				m.Run(20_000_000)
				tr.end(sp)
				if kind == torture.KindDifferential {
					st.tortureCycles += m.CPU.Cycles
				}
			}
		}
	}
	tr.end(root)
	root = tr.begin(-1, 0, "probe.torture")
	for _, c := range cases {
		sp := tr.begin(-1, root, "torture.execute."+c.Kind)
		out := torture.Execute(c)
		tr.end(sp)
		if !out.Pass {
			return fmt.Errorf("%s case seed %d failed: %s", c.Kind, c.Seed, out.Reason)
		}
	}
	tr.end(root)
	return nil
}

// replayDevices walks every device of the scenario through the kernel:
// boot, dispatch up to each stopping point, the op's mid-shard checkpoints
// and forced brownouts; then probes one checkpoint, resume and reboot per
// device. The button sequence is fleet-private, so the replay presses
// buttons 1, 2, 3 in turn.
func replayDevices(in replayInput, tmpl *kernel.BootTemplate, tr *tracer, st *replayStats) error {
	sc := in.scenario
	arena := mem.NewPageArena()
	root := tr.begin(-1, 0, "replay.devices")
	probe := tr.begin(-1, 0, "probe.kernel")
	defer tr.end(probe)
	defer tr.end(root)
	const never = ^uint64(0)
	every := func(ms uint64) uint64 {
		if ms == 0 {
			return never
		}
		return ms
	}
	for d := 0; d < sc.Devices; d++ {
		sp := tr.begin(-1, root, "kernel.boot")
		k := tmpl.NewKernelArena(fleet.DeviceSeed(sc.Seed, sc.FirstDevice+d), arena)
		if sc.Policy != nil {
			k.Policy = *sc.Policy
		}
		tr.end(sp)
		st.devices++
		nextBtn, nextSeg, nextBrown := every(sc.ButtonEveryMS), every(in.segmentMS), every(sc.BrownoutEveryMS)
		presses := 0
		now := uint64(0)
		for now < sc.DurationMS {
			next := min(sc.DurationMS, nextBtn, nextSeg, nextBrown)
			_, _, c0 := k.Totals()
			i0, cy0 := k.CPU.Insns, k.CPU.Cycles
			sp := tr.begin(-1, root, "kernel.dispatch")
			st.events += uint64(k.RunUntil(next))
			tr.end(sp)
			_, _, c1 := k.Totals()
			st.appCycles += c1 - c0
			st.instr += k.CPU.Insns - i0
			st.cpuCycles += k.CPU.Cycles - cy0
			now = next
			if now == nextBtn {
				presses++
				k.InjectButton(uint16(presses%3) + 1)
				nextBtn += sc.ButtonEveryMS
			}
			if now == nextSeg {
				sp := tr.begin(-1, root, "kernel.checkpoint")
				tmpl.Checkpoint(k)
				tr.end(sp)
				nextSeg += in.segmentMS
			}
			if now == nextBrown {
				restart := now + sc.BrownoutOffMS
				sp := tr.begin(-1, root, "kernel.reboot")
				cut := tmpl.PersistentCut(tmpl.Checkpoint(k), now)
				k.Bus.ReleasePages()
				k2, err := tmpl.RebootFromCut(cut, restart, arena)
				tr.end(sp)
				if err != nil {
					return fmt.Errorf("device %d reboot at %d ms: %w", d, now, err)
				}
				k, now = k2, restart
				for nextBtn <= now {
					nextBtn += sc.ButtonEveryMS
				}
				for nextSeg <= now {
					nextSeg += in.segmentMS
				}
				nextBrown += sc.BrownoutEveryMS
			}
		}
		if err := probeKernel(tmpl, k, arena, now, tr, probe, st); err != nil {
			return fmt.Errorf("device %d: %w", d, err)
		}
	}
	return nil
}

// probeKernel times one checkpoint, resume and brownout reboot of a device
// at the end of its window, and checks that the resumed kernel
// re-checkpoints to the same bytes.
func probeKernel(tmpl *kernel.BootTemplate, k *kernel.Kernel, arena *mem.PageArena, now uint64, tr *tracer, probe int, st *replayStats) error {
	sp := tr.begin(-1, probe, "kernel.checkpoint")
	ck := tmpl.Checkpoint(k)
	tr.end(sp)
	want, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	st.checkpointBytes += uint64(len(want))
	st.dirtyPages += uint64(k.Bus.DirtyPages())
	st.probed++
	sp = tr.begin(-1, probe, "kernel.resume")
	k2, err := tmpl.Resume(ck, arena)
	tr.end(sp)
	if err != nil {
		return err
	}
	got, err := json.Marshal(tmpl.Checkpoint(k2))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("resumed kernel re-checkpoints to different bytes")
	}
	sp = tr.begin(-1, probe, "kernel.reboot")
	k3, err := tmpl.RebootFromCut(tmpl.PersistentCut(ck, now), now+100, arena)
	tr.end(sp)
	if err != nil {
		return err
	}
	for _, x := range []*kernel.Kernel{k, k2, k3} {
		x.Bus.ReleasePages()
	}
	return nil
}

// replayFleet runs the scenario in shards, merging as fleetd does (and, for
// a daemon op, encoding the progress line and persisting the merge after
// each shard), checks the merge against the op's report, and measures how
// the fleet runner scales from one worker to nproc.
func replayFleet(ctx context.Context, e env, in replayInput, tr *tracer, st *replayStats) error {
	sc := in.scenario
	cache := fleet.NewBuildCache()
	if _, err := cache.Template(sc.Apps, sc.Mode); err != nil {
		return err
	}
	runner := &fleet.Runner{Workers: e.workers, Cache: cache}
	root := tr.begin(-1, 0, "replay.fleet")
	var merged *fleet.Report
	for first := 0; first < sc.Devices; first += in.shardDevices {
		sub := sc
		sub.FirstDevice = sc.FirstDevice + first
		sub.Devices = min(in.shardDevices, sc.Devices-first)
		sp := tr.begin(-1, root, "fleet.run")
		rep, err := runner.Run(ctx, sub)
		tr.end(sp)
		if err != nil {
			return err
		}
		if merged == nil {
			merged = rep
		} else {
			sp = tr.begin(-1, root, "fleet.merge")
			err = merged.Merge(rep)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		if in.daemon {
			sp = tr.begin(-1, root, "fleet.encode")
			_, err := json.Marshal(merged)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin(-1, root, "fleetd.persist")
			err = persist(e.workDir, merged)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	sp := tr.begin(-1, root, "fleet.encode")
	out, err := encodeJSON(merged)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return err
	}
	st.reportBytes = len(out)
	st.opCycles = merged.TotalCycles
	if in.reference != nil && !bytes.Equal(out, in.reference) {
		return fmt.Errorf("merged shards differ from the op's report")
	}

	root = tr.begin(-1, 0, "probe.fleet")
	defer tr.end(root)
	var times [2]time.Duration
	for i, r := range []*fleet.Runner{{Workers: 1, Cache: cache}, runner} {
		sp := tr.begin(-1, root, "fleet.scale")
		start := time.Now()
		_, err := r.Run(ctx, sc)
		times[i] = time.Since(start)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	st.scaling = float64(times[0]) / float64(times[1])
	return nil
}

// persist writes a merge the way fleetd's state file carries it (progress
// and report), atomically by rename.
func persist(dir string, merged *fleet.Report) error {
	data, err := json.Marshal(struct {
		Merged *fleet.Report `json:"merged"`
		Report *fleet.Report `json:"report"`
	}{merged, merged})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "replay-state.json")
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// replayDaemon submits the replay's jobs at once to a fresh daemon, one
// client each, so later jobs queue behind earlier ones.
func replayDaemon(ctx context.Context, e env, in replayInput, tr *tracer) error {
	d, err := startDaemon(e)
	if err != nil {
		return err
	}
	defer d.stop()
	root := tr.begin(-1, 0, "replay.fleetd")
	defer tr.end(root)
	errs := make([]error, len(in.jobs))
	var wg sync.WaitGroup
	for i, spec := range in.jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := d.client.run(ctx, spec, tr, -1, root)
			if err == nil && spec.Type != fleetd.TypeTorture && in.reference != nil && !bytes.Equal(out, in.reference) {
				err = errMismatch
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("daemon job: %w", err)
		}
	}
	return nil
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(t *tree, s *sample, st *replayStats, inst *instance) map[string]metric {
	all := t.byName("")
	mirror := map[string]*nameStat{}
	for _, sec := range inst.replay.mirror {
		for n, x := range t.byName(sec) {
			if mirror[n] == nil {
				mirror[n] = &nameStat{}
			}
			mirror[n].n += x.n
			mirror[n].dur += x.dur
			mirror[n].self += x.self
		}
	}
	// Only the spans that name a share count: the fleet section's shard runs
	// repeat the device section's kernel work.
	for n := range mirror {
		if !slices.Contains(shareNames, n) {
			delete(mirror, n)
		}
	}
	printTable("traced ops: self time by span", t.byName("op"))
	shares := printTable(fmt.Sprintf("replay of one op's work %v: self time by span", inst.replay.mirror), mirror)

	ops := float64(s.attempted)
	perOp := func(name string) float64 { return float64(s.counters[name]) / ops }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	dispatch := all["kernel.dispatch"]
	dispatchNS := 0.0
	if dispatch != nil {
		dispatchNS = float64(dispatch.dur)
	}
	queueMS, streamKB, stateKB := jobs.stats()
	slow := 0
	for _, sp := range t.spans {
		if sp.Name == "fleetd.shard_gap" && sp.dur() >= int64(500*time.Millisecond) {
			slow++
		}
	}
	if slow > 0 {
		logf("warning: %d shard waits reached fleetd's 500 ms checkpoint cadence; persistence now depends on host speed", slow)
	}
	untraced, traced := percentile(s.opMS, 50), percentile(s.tracedMS, 50)
	// Tracing costs about 1% of an op, so p90 takes both halves' samples.
	allMS := append(append([]float64(nil), s.opMS...), s.tracedMS...)
	// JIT compile time as a share of op wall time: ~0 where compiled code
	// runs long, high where it barely runs.
	opNS := 1e6 * (mean(s.opMS)*float64(len(s.opMS)) + mean(s.tracedMS)*float64(len(s.tracedMS)))
	m := map[string]metric{
		"cc.compile_ms_per_program":       {meanMS(all, "cc.compile"), "ms"},
		"cc.compile_kb_per_program":       {div(float64(st.ccBytes)/1024, float64(st.ccPrograms)), "KB"},
		"aft.build_ms":                    {meanMS(all, "aft.build"), "ms"},
		"kernel.template_ms":              {meanMS(all, "kernel.template"), "ms"},
		"kernel.boot_us_per_device":       {1000 * meanMS(all, "kernel.boot"), "us"},
		"mem.dirty_pages_per_device":      {div(float64(st.dirtyPages), float64(st.probed)), "count"},
		"mem.cow_pages_dirtied_per_op":    {perOp(obs.MetricPagesDirtied), "count"},
		"mem.cow_recycle_ratio":           {div(float64(s.counters[obs.MetricPagesRecycled]), float64(s.counters[obs.MetricPagesDirtied])), "ratio"},
		"kernel.dispatch_us_per_event":    {div(dispatchNS/1e3, float64(st.events)), "us"},
		"kernel.events_per_device":        {div(float64(st.events), float64(st.devices)), "count"},
		"cpu.minstr_per_s":                {div(float64(st.instr)*1e3, dispatchNS), "Minstr/s"},
		"cpu.cycles_per_instr":            {div(float64(st.cpuCycles), float64(st.instr)), "cycles/instr"},
		"jit.blocks_compiled_per_op":      {perOp(obs.MetricJITBlocksCompiled), "count"},
		"jit.compile_pct_of_op":           {100 * div(float64(s.counters[obs.MetricJITCompileNS]), opNS), "%"},
		"jit.deopts_per_op":               {perOp(obs.MetricJITDeopts), "count"},
		"kernel.checkpoint_us_per_device": {1000 * meanMS(all, "kernel.checkpoint"), "us"},
		"kernel.checkpoint_kb_per_device": {div(float64(st.checkpointBytes)/1024, float64(st.probed)), "KB"},
		"kernel.resume_us_per_device":     {1000 * meanMS(all, "kernel.resume"), "us"},
		"kernel.reboot_us":                {1000 * meanMS(all, "kernel.reboot"), "us"},
		"power.brownouts_per_op":          {perOp(obs.MetricBrownouts), "count"},
		"power.reboots_per_op":            {perOp(obs.MetricReboots), "count"},
		"fleet.run_ms_per_shard":          {meanMS(all, "fleet.run"), "ms"},
		"fleet.merge_ms_per_shard":        {meanMS(all, "fleet.merge"), "ms"},
		"fleet.report_kb":                 {float64(st.reportBytes) / 1024, "KB"},
		"fleet.scaling_x":                 {st.scaling, "x"},
		"torture.gen_us_per_case":         {1000 * meanMS(all, "torture.gen"), "us"},
		"fleetd.submit_ms":                {meanMS(all, "fleetd.submit"), "ms"},
		"fleetd.queue_wait_ms":            {queueMS, "ms"},
		"fleetd.first_progress_ms":        {meanMS(all, "fleetd.first_progress"), "ms"},
		"fleetd.shard_gap_ms":             {meanMS(all, "fleetd.shard_gap"), "ms"},
		"fleetd.report_fetch_ms":          {meanMS(all, "fleetd.report"), "ms"},
		"fleetd.stream_kb_per_job":        {streamKB, "KB"},
		"fleetd.state_kb_per_job":         {stateKB, "KB"},
		"fleetd.slow_shards":              {float64(slow), "count"},
		"trace.coverage_pct":              {opCoverage(t), "%"},
		"trace.op_ms_p90":                 {p90(allMS), "ms"},
		"trace.op_samples":                {float64(len(allMS)), "count"},
		"trace.overhead_pct":              {100 * div(traced-untraced, untraced), "%"},
		"trace.replay_cycle_ratio":        {div(float64(st.mirrorCycles), float64(st.opCycles)), "x"},
	}
	for _, kind := range tortureKindOrder {
		m["torture.execute_ms_per_case."+kind] = metric{meanMS(all, "torture.execute."+kind), "ms"}
	}
	for _, n := range shareNames {
		m[shareMetric(n)] = metric{shares[n], "%"}
	}
	return m
}
