package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"amuletiso/internal/fleet"
	"amuletiso/internal/obs"
	"amuletiso/internal/torture"
)

// Daemon-level metrics, exposed on the same mux as the job API.
var (
	mJobsSubmitted = obs.Default.Counter("amulet_fleetd_jobs_submitted_total",
		"Jobs accepted by the fleetd scheduler.")
	mJobsFinished = obs.Default.CounterVec("amulet_fleetd_jobs_finished_total",
		"Jobs that reached a terminal state, by state.", "state")
	mShardsMerged = obs.Default.Counter("amulet_fleetd_shards_merged_total",
		"Fleet shards completed and merged into job reports.")
	mResumes = obs.Default.Counter("amulet_fleetd_jobs_resumed_total",
		"Jobs continued from persisted checkpoint state.")
	mPersistFailures = obs.Default.Counter("amulet_fleetd_persist_failures_total",
		"Journal and cut writes that failed (unwritten journal records are retried at the next append).")
	mPersistBytes = obs.Default.Counter("amulet_fleetd_persist_bytes_total",
		"Bytes written to job journals and cut files.")
	mPersistLatency = obs.Default.Histogram("amulet_fleetd_persist_latency_us",
		"Host microseconds per journal append or cut write, fsync included.",
		[]uint64{100, 250, 500, 1000, 2500, 5000, 10_000, 25_000, 100_000, 1_000_000})
	mCorruptStateFiles = obs.Default.Counter("amulet_fleetd_state_files_corrupt_total",
		"Job journals LoadState could not replay and renamed to *.corrupt.")
	mShardWall = obs.Default.Histogram("amulet_fleetd_shard_wall_us",
		"Host microseconds from a shard's launch until its journal record is durable.",
		[]uint64{1000, 2500, 5000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000, 10_000_000})
	mQueueWait = obs.Default.Histogram("amulet_fleetd_queue_wait_us",
		"Host microseconds a job waited in the queue before it ran (since submit, or since LoadState for a restored job).",
		[]uint64{1000, 10_000, 50_000, 100_000, 250_000, 1_000_000, 10_000_000, 60_000_000, 600_000_000})
)

const (
	// maxSpecBytes bounds a POST /jobs body.
	maxSpecBytes = 1 << 20
	// maxQueued bounds the FIFO: POST /jobs replies 429 while this many
	// jobs wait to run.
	maxQueued = 64
	// retainFinished is how many of the most recently finished jobs keep
	// their final report in memory; older ones replay their journal. A
	// daemon without a state directory keeps every report.
	retainFinished = 8
)

var (
	errQueueFull   = errors.New("fleetd: job queue full")
	errUnpersisted = errors.New("fleetd: job journal not written")
)

// Server is the fleetd scheduler plus its HTTP surface. Configure the
// exported fields, then LoadState (optional) and Start; Handler serves the
// API, obs metrics and pprof on one mux.
//
// Jobs run one at a time in submission order. Within a job, shards overlap:
// a shard's last devices leave workers idle, and its merge and fsync'd
// journal append run on the scheduler goroutine, so a serial walk kept only
// 1.39 of 2 cores busy on the fleetd_churn benchmark (2-vCPU host). Two
// shards are in flight at once (runShards); they finish in shard order.
type Server struct {
	// Runner executes fleet shards; nil gets a private runner. Share one
	// across the daemon's lifetime so the build cache and page arena persist
	// between jobs.
	Runner *fleet.Runner
	// StateDir persists job state for crash recovery ("" = memory only).
	StateDir string
	// ShardDevices is the default scheduling shard size: each job's fleet is
	// cut into shards of this many devices, two running at a time, merged
	// and persisted in shard order. <= 0 runs each fleet as a single shard.
	ShardDevices int
	// ShardPrograms is the torture analogue of ShardDevices: programs per
	// mergeable campaign shard, scheduled the same way. <= 0 runs each
	// campaign as a single shard.
	ShardPrograms int
	// FlushEvery is the real-time cadence of mid-shard checkpoint writes
	// (0 = 500ms). One timer per job cuts the lowest shard in flight, the
	// one a resume starts at. Each cut asks the shard's running devices for
	// fresh snapshots, which they park at their next poll (between event
	// batches or at an injection or power boundary), and the next cut
	// carries them, so a persisted cut is at most one flush period plus one
	// event batch stale. A shard is first asked once it is the lowest and
	// has run one period, and its cuts are written from one period later
	// on: a shard that finishes within one period is never cut, and no cut
	// written lacks the snapshots of the devices running when it was asked.
	// The other shard in flight is never cut, so it takes no snapshots until
	// a stop, and reruns from boot after a crash before it becomes the
	// lowest.
	FlushEvery time.Duration

	// files takes every journal and cut write.
	files persistFS

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	// submitting counts submits between their queue check and their
	// registration, so concurrent submits cannot overrun maxQueued.
	submitting int
	// hot lists the finished jobs still holding their final report, oldest
	// first.
	hot     []*Job
	wake    chan struct{}
	ctx     context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	started bool
}

// NewServer returns an idle server with the given state dir ("" = memory
// only).
func NewServer(stateDir string) *Server {
	return &Server{
		Runner:   &fleet.Runner{Cache: fleet.NewBuildCache()},
		StateDir: stateDir,
		files:    osFS{},
		jobs:     make(map[string]*Job),
		nextID:   1,
		wake:     make(chan struct{}, 1),
	}
}

func (s *Server) flushEvery() time.Duration {
	if s.FlushEvery > 0 {
		return s.FlushEvery
	}
	return 500 * time.Millisecond
}

// Start launches the scheduler. Call after LoadState.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.mu.Unlock()
	s.wg.Add(1)
	go s.schedule()
}

// Stop halts the scheduler: the running job (if any) is interrupted, its
// consistent cut persisted, and the job re-queued on disk so the next
// LoadState continues it. Blocks until the scheduler goroutine exits.
func (s *Server) Stop() {
	s.mu.Lock()
	stop := s.stop
	s.mu.Unlock()
	if stop != nil {
		stop()
	}
	s.wg.Wait()
}

// Submit validates and enqueues a job, returning its ID. With a state
// directory the job's journal header is on disk before Submit returns. An
// invalid spec is refused, as are a full queue (errQueueFull) and a header
// that cannot be written (errUnpersisted); a refused job is not registered.
func (s *Server) Submit(spec JobSpec) (string, error) {
	if err := spec.validate(); err != nil {
		return "", err
	}
	return s.enqueue(spec)
}

// enqueue registers and journals a job whose spec Submit has validated.
func (s *Server) enqueue(spec JobSpec) (string, error) {
	s.mu.Lock()
	if s.queuedLocked()+s.submitting >= maxQueued {
		s.mu.Unlock()
		return "", errQueueFull
	}
	id := fmt.Sprintf("job-%d", s.nextID)
	s.nextID++
	s.submitting++
	s.mu.Unlock()

	j := newJob(id, spec)
	var err error
	if s.StateDir != "" {
		err = s.createJournal(j)
	}
	s.mu.Lock()
	s.submitting--
	if err == nil {
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	s.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("%w: %v", errUnpersisted, err)
	}
	mJobsSubmitted.Inc()
	s.kick()
	return id, nil
}

// queuedLocked counts jobs waiting to run. Callers hold s.mu.
func (s *Server) queuedLocked() int {
	n := 0
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		if j.state == StateQueued && !j.cancelled {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists jobs in submission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := s.jobs
	s.mu.Unlock()
	views := make([]JobView, 0, len(ids))
	for _, id := range ids {
		views = append(views, jobs[id].view())
	}
	return views
}

// Cancel requests cancellation of a queued or running job.
func (s *Server) Cancel(id string) error {
	j, ok := s.Job(id)
	if !ok {
		return fmt.Errorf("fleetd: no job %s", id)
	}
	j.mu.Lock()
	switch {
	case j.terminalLocked():
		j.mu.Unlock()
		return fmt.Errorf("fleetd: job %s already %s", id, j.view().State)
	case j.cancelled:
		j.mu.Unlock()
		return nil // a cancel is already under way
	case j.state == StateQueued:
		// The cancelled mark keeps the scheduler off the job while settle
		// persists the terminal state.
		j.cancelled = true
		j.mu.Unlock()
		s.settle(j, StateCancelled, "")
		mJobsFinished.With(StateCancelled).Inc()
		return nil
	default: // running
		j.cancelled = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	}
}

// kick nudges the scheduler without blocking.
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// nextQueued pops the first queued job in submission order.
func (s *Server) nextQueued() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		queued := j.state == StateQueued && !j.cancelled
		j.mu.Unlock()
		if queued {
			return j
		}
	}
	return nil
}

// schedule is the scheduler loop: FIFO over queued jobs, one at a time.
func (s *Server) schedule() {
	defer s.wg.Done()
	for {
		j := s.nextQueued()
		if j == nil {
			select {
			case <-s.wake:
				continue
			case <-s.ctx.Done():
				return
			}
		}
		s.runJob(j)
		select {
		case <-s.ctx.Done():
			return
		default:
		}
	}
}

// runJob executes one job to a terminal state — or back to queued when the
// daemon itself is shutting down mid-run.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.ctx)
	j.mu.Lock()
	j.state = StateRunning
	j.cancel = cancel
	resumed := j.resume != nil
	mQueueWait.Observe(uint64(time.Since(j.queued).Microseconds()))
	j.mu.Unlock()
	defer cancel()
	if resumed {
		mResumes.Inc()
	}

	var err error
	if j.Spec.kind() == TypeTorture {
		err = s.runTortureJob(ctx, j)
	} else {
		err = s.runFleetJob(ctx, j)
	}

	j.mu.Lock()
	cancelled := j.cancelled
	j.mu.Unlock()
	state, errMsg := StateDone, ""
	switch {
	case err == nil:
	case cancelled:
		state, errMsg = StateCancelled, err.Error()
	case s.ctx.Err() != nil:
		// Daemon shutdown: the job goes back to the queue; its progress was
		// already persisted by the run loop below.
		state = StateQueued
	default:
		state, errMsg = StateFailed, err.Error()
	}
	s.settle(j, state, errMsg)
	if state != StateQueued {
		mJobsFinished.With(state).Inc()
	}
}

// shardWindow is how many of a job's shards run at once: one draining its
// tail on the last busy workers, one filling the workers that went idle.
const shardWindow = 2

// shardOut is what one shard's run hands the pipeline.
type shardOut struct {
	fleet   *fleet.Report
	torture *torture.Report
	// cut is an interrupted fleet shard's final cut.
	cut *fleet.CampaignCheckpoint
	err error
}

// shardRun is one shard in flight; out is set when done closes. cutter
// takes the shard's mid-run cuts (fleet shards attach it to their run).
type shardRun struct {
	k      int
	start  time.Time
	done   chan struct{}
	out    shardOut
	cutter fleet.Cutter
}

// runShards is the shard pipeline of both job types. It keeps shardWindow
// shards, from start on, running through run: when a shard's run returns,
// the next shard launches into its workers. Shards finish strictly in shard
// order on the calling goroutine: finish frames, merges and journals shard
// k and publishes its progress before shard k+1 is looked at, so the
// journal and the stream grow exactly as a serial walk would grow them.
//
// runShards is also the only writer of the job's cut file. While it waits
// for the lowest shard in flight, a FlushEvery timer cuts that shard. A
// shard's first cut only asks its devices for snapshots and is not written,
// so every cut written carries the snapshots its running devices parked
// since the cut before it.
//
// A failed shard, or the cancellation of ctx, stops the pipeline: every run
// is cancelled and waited for, and only the lowest unfinished shard's final
// cut is written. The shards above it rerun from boot on resume, to the same
// bytes.
func (s *Server) runShards(ctx context.Context, j *Job, start, nshards int,
	run func(ctx context.Context, k int, cutter *fleet.Cutter) shardOut, finish func(k int, out shardOut) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var inflight []*shardRun
	next := start
	launch := func() {
		r := &shardRun{k: next, start: time.Now(), done: make(chan struct{})}
		next++
		inflight = append(inflight, r)
		go func() {
			defer close(r.done)
			r.out = run(ctx, r.k, &r.cutter)
		}()
	}
	for next < nshards && len(inflight) < shardWindow {
		launch()
	}
	flush := time.NewTimer(s.flushEvery())
	defer flush.Stop()
	for len(inflight) > 0 {
		r := inflight[0]
		inflight = inflight[1:]
		// The first tick comes once r has run a flush period, at once if it
		// already has. It only asks r's devices for snapshots; the cuts
		// written from the next tick on carry them.
		asked := false
		flush.Reset(max(s.flushEvery()-time.Since(r.start), 0))
		for waiting := true; waiting; {
			select {
			case <-r.done:
				waiting = false
			case <-flush.C:
				if cut := r.cutter.Cut(); cut != nil {
					if asked {
						s.writeCut(j, r.k+1, cut)
					}
					asked = true
				}
				flush.Reset(s.flushEvery())
			}
		}
		err := r.out.err
		// The next shard takes r's workers while r merges and persists. A
		// cancelled job launches nothing more: the shard in flight finishes
		// or stops, and the cancellation is returned below.
		if err == nil && next < nshards && ctx.Err() == nil {
			launch()
		}
		if err == nil {
			err = finish(r.k, r.out)
		}
		if err != nil {
			cancel()
			for _, o := range inflight {
				<-o.done
			}
			if r.out.cut != nil {
				s.writeCut(j, r.k+1, r.out.cut)
			}
			return err
		}
		mShardWall.Observe(uint64(time.Since(r.start).Microseconds()))
	}
	if next < nshards {
		return ctx.Err()
	}
	return nil
}

// runFleetJob walks the job's fleet shard by shard through the pipeline,
// journaling and merging after each. Shards are contiguous FirstDevice
// ranges, so the running merge is always a valid partial campaign and the
// final merge is byte-identical to a one-shot run of the whole scenario.
func (s *Server) runFleetJob(ctx context.Context, j *Job) error {
	sc, err := j.Spec.scenario()
	if err != nil {
		return err
	}
	shard := j.Spec.ShardDevices
	if shard <= 0 {
		shard = s.ShardDevices
	}
	if shard <= 0 || shard > sc.Devices {
		shard = sc.Devices
	}

	var merged *fleet.Report
	var cut *fleet.CampaignCheckpoint
	start := 0
	j.mu.Lock()
	if p := j.resume; p != nil {
		merged, cut, start = p.Merged, p.Current, p.ShardsDone
	}
	j.report = merged
	j.mu.Unlock()

	runner := s.Runner
	if runner == nil {
		runner = &fleet.Runner{Cache: fleet.NewBuildCache()}
		s.Runner = runner
	}

	run := func(ctx context.Context, k int, cutter *fleet.Cutter) shardOut {
		sub := sc
		sub.FirstDevice = sc.FirstDevice + k*shard
		sub.Devices = min(shard, sc.FirstDevice+sc.Devices-sub.FirstDevice)
		var prior *fleet.CampaignCheckpoint
		if k == start {
			prior = cut // nil unless resuming mid-shard
		}
		rep, c, err := runner.RunResumable(ctx, sub, prior, cutter)
		return shardOut{fleet: rep, cut: c, err: err}
	}
	finish := func(k int, out shardOut) error {
		// The shard's own report is journaled, encoded before a later merge
		// can append to it.
		rec := s.frame(&record{Kind: recShard, Shard: k + 1, Report: out.fleet})
		if merged == nil {
			merged = out.fleet
		} else if err := merged.Merge(out.fleet); err != nil {
			return err
		}
		s.shardDone(j, rec, &jobProgress{ShardsDone: k + 1, Merged: merged}, merged.Devices)
		return nil
	}
	return s.runShards(ctx, j, start, (sc.Devices+shard-1)/shard, run, finish)
}

// shardDone makes a completed shard durable, then publishes the new merge
// and its stream line: a reader that sees the progress finds the shard in
// the journal. A failed append is counted and retried with the next record;
// the job runs on.
func (s *Server) shardDone(j *Job, rec []byte, p *jobProgress, done int) {
	_ = s.appendJournal(j, rec)
	mShardsMerged.Inc()
	j.mu.Lock()
	j.resume = p
	j.report, j.torture = p.Merged, p.TortureMerged
	j.done = done
	j.lines = append(j.lines, deltaLine(j.ID, j.state, done, j.total))
	j.wakeLocked()
	j.mu.Unlock()
}

// runTortureJob walks the job's campaign through the same pipeline —
// contiguous program ranges, exactly as runFleetJob walks device ranges —
// journaling and merging after each shard, so a killed daemon resumes at the
// first incomplete shard and the final merge is byte-identical to a one-shot
// run of the whole campaign. Torture cases have no mid-case cut, so an
// interrupted shard reruns whole.
func (s *Server) runTortureJob(ctx context.Context, j *Job) error {
	workers := 0
	if s.Runner != nil {
		workers = s.Runner.Workers
	}
	cfg, err := j.Spec.tortureConfig(workers)
	if err != nil {
		return err
	}
	shard := j.Spec.ShardPrograms
	if shard <= 0 {
		shard = s.ShardPrograms
	}
	if shard <= 0 || shard > cfg.Programs {
		shard = cfg.Programs
	}

	var merged *torture.Report
	start := 0
	j.mu.Lock()
	if p := j.resume; p != nil {
		merged, start = p.TortureMerged, p.ShardsDone
	}
	j.torture = merged
	j.mu.Unlock()

	run := func(ctx context.Context, k int, _ *fleet.Cutter) shardOut {
		sub := cfg
		sub.First = cfg.First + k*shard
		sub.Programs = min(shard, cfg.First+cfg.Programs-sub.First)
		rep, err := torture.Run(ctx, sub)
		return shardOut{torture: rep, err: err}
	}
	finish := func(k int, out shardOut) error {
		rec := s.frame(&record{Kind: recShard, Shard: k + 1, Torture: out.torture})
		if merged == nil {
			merged = out.torture
		} else if err := merged.Merge(out.torture); err != nil {
			return err
		}
		s.shardDone(j, rec, &jobProgress{ShardsDone: k + 1, TortureMerged: merged}, merged.Programs)
		return nil
	}
	return s.runShards(ctx, j, start, (cfg.Programs+shard-1)/shard, run, finish)
}

// settle moves a job to state — a terminal one, or back to queued on
// shutdown. A terminal state's end record is on disk first; only then do the
// state and its stream line become visible, together. A status reader or
// stream follower that sees the state therefore finds the end record in the
// journal and the terminal line in the stream.
func (s *Server) settle(j *Job, state, errMsg string) {
	terminal := isTerminal(state)
	var final []byte
	var persisted error
	if terminal {
		persisted = s.appendJournal(j, s.frame(&record{Kind: recEnd, State: state, Error: errMsg}))
		j.mu.Lock()
		rep, tort := j.report, j.torture
		j.mu.Unlock()
		// A report Marshal rejects leaves final nil; /report then replies
		// with an error instead of bytes.
		final, _ = encodeFinal(rep, tort)
	}
	j.mu.Lock()
	j.state, j.errMsg = state, errMsg
	if terminal {
		j.final = final
		j.report, j.torture, j.resume = nil, nil, nil
	} else {
		j.lines = append(j.lines, deltaLine(j.ID, state, j.done, j.total))
	}
	j.wakeLocked()
	j.mu.Unlock()
	if !terminal || s.StateDir == "" {
		return
	}
	if persisted == nil {
		// Best effort: replay ignores a terminal job's cut.
		_ = os.Remove(s.cutPath(j.ID))
	}
	s.retire(j)
}

// retire admits a finished job to the retention window and turns the
// oldest beyond it cold. A job whose journal still lacks records stays hot:
// its journal cannot reproduce the report.
func (s *Server) retire(j *Job) {
	s.mu.Lock()
	s.hot = append(s.hot, j)
	var out []*Job
	if n := len(s.hot) - retainFinished; n > 0 {
		out = append(out, s.hot[:n]...)
		s.hot = append(s.hot[:0], s.hot[n:]...)
	}
	s.mu.Unlock()
	for _, old := range out {
		old.persistMu.Lock()
		durable := old.pending == nil
		old.persistMu.Unlock()
		if durable {
			old.mu.Lock()
			old.final, old.cold = nil, true
			old.mu.Unlock()
		}
	}
}

// finalOf returns a terminal job's compact final merge, replaying the
// journal of a cold job.
func (s *Server) finalOf(j *Job) ([]byte, error) {
	j.mu.Lock()
	final, cold, state := j.final, j.cold, j.state
	j.mu.Unlock()
	if !cold {
		return final, nil
	}
	data, err := os.ReadFile(s.journalPath(j.ID))
	if err != nil {
		return nil, err
	}
	jr, err := replayJournal(j.ID, data)
	if err != nil {
		return nil, err
	}
	if jr.state != state {
		return nil, fmt.Errorf("fleetd: %s journal ends %q, job is %s", j.ID, jr.state, state)
	}
	return encodeFinal(jr.merged, jr.torture)
}

// terminalLine is a terminal job's last stream line, in parts to write in
// order. A cold job whose journal cannot be replayed still gets its line,
// without the report.
//
// The parts are the bytes json.Marshal gives the line's streamEvent, with
// the final merge spliced in as it is, uncopied: final came from
// json.Marshal, so it is already compact and HTML-escaped, which is all
// Marshal would do to it.
func (s *Server) terminalLine(j *Job) [][]byte {
	j.mu.Lock()
	head := deltaLine(j.ID, j.state, j.done, j.total)
	errMsg := j.errMsg
	j.mu.Unlock()
	// The running-line fields, reopened: the closing brace comes last.
	line := [][]byte{head[:len(head)-1]}
	if final, err := s.finalOf(j); err == nil && len(final) > 0 {
		field := `,"report":`
		if j.Spec.kind() == TypeTorture {
			field = `,"torture":`
		}
		line = append(line, []byte(field), final)
	}
	var tail []byte
	if errMsg != "" {
		// A string: Marshal cannot fail.
		msg, _ := json.Marshal(errMsg)
		tail = append([]byte(`,"error":`), msg...)
	}
	return append(line, append(tail, '}'))
}

// Handler returns the daemon's HTTP surface: the job API plus the obs
// observability unit (/metrics, /debug/pprof/) on one mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.Handle("/metrics", obs.Handler(obs.Default))
	mux.Handle("/debug/pprof/", obs.Handler(obs.Default))
	return mux
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("fleetd: bad job spec: %w", err))
		return
	}
	id, err := s.Submit(spec)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, errUnpersisted):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]string{"id": id})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Jobs())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("fleetd: no job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, j.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// handleReport serves a finished job's report with exactly the encoding
// `amuletfleet -json` (or `amulettorture -json`) uses, so the two outputs
// byte-compare equal: the compact final merge, indented.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("fleetd: no job %s", r.PathValue("id")))
		return
	}
	if state := j.view().State; state != StateDone {
		httpError(w, http.StatusConflict, fmt.Errorf("fleetd: job %s is %s, not done", j.ID, state))
		return
	}
	final, err := s.finalOf(j)
	if err == nil && final == nil {
		err = fmt.Errorf("fleetd: job %s has no report", j.ID)
	}
	var buf *bytes.Buffer
	select {
	case buf = <-indentBufs:
		buf.Reset()
	default:
		buf = new(bytes.Buffer)
	}
	defer func() {
		select {
		case indentBufs <- buf:
		default:
		}
	}()
	if err == nil {
		err = json.Indent(buf, final, "", "  ")
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	buf.WriteByte('\n')
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

// indentBufs recycles the buffers /report indents final merges into. Not a
// sync.Pool: a pool empties at every GC, and serving a job allocates enough
// to collect every few jobs, so pooled buffers were mostly regrown.
var indentBufs = make(chan *bytes.Buffer, 4)

// handleStream serves the job's NDJSON progress stream: all history so far,
// then live lines until the job reaches a terminal state. One JSON object
// per line; the last line carries the terminal state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("fleetd: no job %s", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		j.mu.Lock()
		lines := j.lines[sent:]
		sent = len(j.lines)
		terminal := j.terminalLocked()
		changed := j.changed
		j.mu.Unlock()
		for _, line := range lines {
			if !writeLine(w, line) {
				return
			}
		}
		if terminal && !writeLine(w, s.terminalLine(j)...) {
			return
		}
		if (len(lines) > 0 || terminal) && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// writeLine writes one stream line, given in parts, and its newline. It
// reports whether every write succeeded.
func writeLine(w http.ResponseWriter, parts ...[]byte) bool {
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return false
		}
	}
	_, err := w.Write([]byte{'\n'})
	return err == nil
}
