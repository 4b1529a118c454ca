package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
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
// exported fields, then LoadState and Start; Handler serves the API, obs
// metrics and pprof on one mux. On a state directory that holds jobs,
// LoadState comes before Submit and Start: it queues the interrupted jobs
// ahead of new ones, and new jobs take IDs past every file on disk instead of
// overwriting job-1's.
//
// Jobs run one at a time in submission order. Within a job, shards overlap:
// a shard's last devices leave workers idle, and its merge and fsync'd
// journal append run on the scheduler goroutine, so a serial walk kept only
// 1.39 of 2 cores busy on the fleetd_churn benchmark (2-vCPU host). Two
// shards are in flight at once (runShards); they finish in shard order. A
// flush tick checkpoints the lower one: it is asked for snapshots at the first
// tick after it becomes the lowest, and its cuts are written from the next.
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
	// FlushEvery is the period of the flush tick that writes mid-shard
	// checkpoints (0 = 500ms). A job's run starts the ticker, and each tick
	// serves the lowest shard in flight, the one a resume starts at: the
	// shard is asked for snapshots at the first tick after it becomes the
	// lowest, and its cuts are written from the next tick on. Each ask has
	// the shard's running devices park fresh snapshots at their next poll
	// (between event batches or at an injection or power boundary), and the
	// next cut carries them, so a persisted cut is at most one flush period
	// plus one event batch stale. A job that ends within one period takes no
	// snapshot. The other shard in flight is never cut, so it takes no
	// snapshots until a stop, and reruns from boot after a crash before it
	// becomes the lowest.
	FlushEvery time.Duration

	// files takes every journal and cut write.
	files persistFS
	// tick, when set, replaces the FlushEvery ticker of every job's run, so
	// a test decides when cuts happen.
	tick <-chan time.Time

	// mu guards the registry. order holds every job in submission order,
	// queue the jobs waiting to run, head first, and jobs indexes order by ID.
	// A job leaves the queue exactly once, in one critical section: claimed
	// by the scheduler, which marks it running, or taken out by Cancel, which
	// settles it. So each job has one journal writer at a time.
	mu     sync.Mutex
	jobs   map[string]*Job
	order  []*Job
	queue  []*Job
	nextID int
	// submitting counts submits between their queue check and their
	// registration, so concurrent submits cannot overrun maxQueued.
	submitting int
	// hot lists the finished jobs still holding their final report, oldest
	// first.
	hot     []*Job
	wake    chan struct{}
	ctx     context.Context // cancelled by Stop
	stop    context.CancelFunc
	wg      sync.WaitGroup
	started bool
}

// NewServer returns an idle server with the given state dir ("" = memory
// only).
func NewServer(stateDir string) *Server {
	s := &Server{
		Runner:   &fleet.Runner{Cache: fleet.NewBuildCache()},
		StateDir: stateDir,
		files:    osFS{},
		jobs:     make(map[string]*Job),
		nextID:   1,
		wake:     make(chan struct{}, 1),
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	return s
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
	defer s.mu.Unlock()
	if !s.started {
		s.started = true
		s.wg.Add(1)
		go s.schedule()
	}
}

// Stop halts the scheduler for good: the running job (if any) is
// interrupted, its consistent cut persisted, and the job put back at the head
// of the queue, unfinished on disk, so the next LoadState continues it.
// Blocks until the scheduler goroutine exits.
func (s *Server) Stop() {
	s.stop()
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
	if len(s.queue)+s.submitting >= maxQueued {
		s.mu.Unlock()
		return "", errQueueFull
	}
	id := fmt.Sprintf("job-%d", s.nextID)
	s.nextID++
	s.submitting++
	s.mu.Unlock()

	j := newJob(id, &journal{spec: spec})
	var err error
	if s.StateDir != "" {
		err = s.createJournal(j)
	}
	s.mu.Lock()
	s.submitting--
	if err == nil {
		s.jobs[id] = j
		s.order = append(s.order, j)
		s.queue = append(s.queue, j)
	}
	s.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("%w: %v", errUnpersisted, err)
	}
	mJobsSubmitted.Inc()
	s.kick()
	return id, nil
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
	jobs := slices.Clone(s.order)
	s.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	return views
}

// Cancel cancels a queued or running job. A queued job leaves the queue and
// is settled here; a running one is interrupted and settled by the
// scheduler. Cancelling a terminal job is an error.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	queued := slices.Index(s.queue, j)
	if queued >= 0 {
		s.queue = slices.Delete(s.queue, queued, queued+1)
		j.mu.Lock()
		j.cancelled = true
		j.mu.Unlock()
	}
	s.mu.Unlock()
	switch {
	case !ok:
		return fmt.Errorf("fleetd: no job %s", id)
	case queued >= 0:
		s.settle(j, StateCancelled, "")
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.terminalLocked():
		return fmt.Errorf("fleetd: job %s already %s", id, j.state)
	case !j.cancelled: // running; a cancelled job is already stopping
		j.cancelled = true
		j.cancel()
	}
	return nil
}

// kick nudges the scheduler without blocking.
func (s *Server) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// claim pops the head of the queue and marks it running, with the cancel
// func of the returned context attached, in one critical section: Cancel
// finds every job either still queued or running. It returns nil once the
// queue is empty or the daemon stops.
func (s *Server) claim() (*Job, context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 || s.ctx.Err() != nil {
		return nil, nil
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	ctx, cancel := context.WithCancel(s.ctx)
	j.mu.Lock()
	j.state, j.cancel = StateRunning, cancel
	mQueueWait.Observe(uint64(time.Since(j.queued).Microseconds()))
	if j.jr.shards > 0 || j.cut != nil {
		mResumes.Inc()
	}
	j.mu.Unlock()
	return j, ctx
}

// schedule is the scheduler loop: FIFO over queued jobs, one at a time.
func (s *Server) schedule() {
	defer s.wg.Done()
	for {
		if j, ctx := s.claim(); j != nil {
			s.runJob(ctx, j)
			continue
		}
		select {
		case <-s.wake:
		case <-s.ctx.Done():
			return
		}
	}
}

// runJob runs a claimed job to a terminal state, or back to the head of the
// queue when the daemon stops mid-run.
func (s *Server) runJob(ctx context.Context, j *Job) {
	defer j.cancel()
	var err error
	if j.Spec.kind() == TypeTorture {
		err = s.runTortureJob(ctx, j)
	} else {
		err = s.runFleetJob(ctx, j)
	}

	// Deciding under s.mu leaves a Cancel racing the stop to find the job
	// either running, cancelled below, or back in the queue.
	s.mu.Lock()
	j.mu.Lock()
	cancelled := j.cancelled
	requeue := err != nil && !cancelled && s.ctx.Err() != nil
	if requeue {
		// Its progress is already persisted by the run.
		j.state = StateQueued
		j.lines = append(j.lines, deltaLine(j.ID, StateQueued, j.done, j.total))
		j.wakeLocked()
		s.queue = slices.Insert(s.queue, 0, j)
	}
	j.mu.Unlock()
	s.mu.Unlock()
	if requeue {
		return
	}
	state, errMsg := StateDone, ""
	switch {
	case err == nil:
	case cancelled:
		state, errMsg = StateCancelled, err.Error()
	default:
		state, errMsg = StateFailed, err.Error()
	}
	s.settle(j, state, errMsg)
}

// shardWindow is how many of a job's shards run at once: one draining its
// tail on the last busy workers, one filling the workers that went idle.
const shardWindow = 2

// shardOut is what one shard's run hands the pipeline: the shard's own
// report, of the job's type, or an interrupted fleet shard's final cut.
type shardOut struct {
	fleet   *fleet.Report
	torture *torture.Report
	cut     *fleet.CampaignCheckpoint
	err     error
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

// runShards is the shard pipeline of both job types. From the first shard
// the job's journal lacks, it keeps shardWindow shards running through run:
// when a shard's run returns, the next shard launches into its workers.
// Shards finish strictly in shard order on the calling goroutine: shard k is
// folded into the job's journal, appended to it and published before shard
// k+1 is looked at, so the journal and the stream grow exactly as a serial
// walk would grow them.
//
// runShards is also the only writer of the job's cut file. While it waits
// for the lowest shard in flight, each flush tick serves that shard: the
// first tick that finds it running only asks its devices for snapshots, and
// every later one writes a cut, which carries the snapshots its running
// devices parked since the tick before.
//
// A failed shard, or the cancellation of ctx, stops the pipeline: every run
// is cancelled and waited for, and only the lowest unfinished shard's final
// cut is written. The shards above it rerun from boot on resume, to the same
// bytes.
func (s *Server) runShards(ctx context.Context, j *Job, nshards int,
	run func(ctx context.Context, k int, cutter *fleet.Cutter) shardOut) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tick := s.tick
	if tick == nil {
		ticker := time.NewTicker(s.flushEvery())
		defer ticker.Stop()
		tick = ticker.C
	}
	var inflight []*shardRun
	next := j.jr.shards
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
	for len(inflight) > 0 {
		r := inflight[0]
		inflight = inflight[1:]
		for asked, waiting := false, true; waiting; {
			select {
			case <-r.done:
				waiting = false
			case <-tick:
				if cut := r.cutter.Cut(); cut != nil {
					if asked {
						s.writeCut(j, r.k+1, cut)
					}
					asked = true
				}
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
			// The record is framed before the fold: the fold's Merge appends
			// into the first shard's report.
			rec := &record{Kind: recShard, Shard: r.k + 1, Report: r.out.fleet, Torture: r.out.torture}
			data := s.frame(rec)
			err = j.jr.apply(j.ID, rec.Shard, rec)
			if err == nil {
				// Durable before published: a reader that sees the progress
				// finds the shard in the journal. A failed append is counted
				// and retried with the next record; the job runs on.
				_ = s.appendJournal(j, data)
				mShardsMerged.Inc()
				j.mu.Lock()
				j.done = j.jr.done()
				j.lines = append(j.lines, deltaLine(j.ID, j.state, j.done, j.total))
				j.wakeLocked()
				j.mu.Unlock()
			}
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

// runFleetJob walks the job's fleet through the shard pipeline. Shards are
// contiguous FirstDevice ranges, so the running merge is always a valid
// partial campaign and the final merge is byte-identical to a one-shot run
// of the whole scenario. The first shard run resumes from the cut LoadState
// found, if any.
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
	runner := s.Runner
	if runner == nil {
		runner = &fleet.Runner{Cache: fleet.NewBuildCache()}
		s.Runner = runner
	}
	start, cut := j.jr.shards, j.cut
	return s.runShards(ctx, j, (sc.Devices+shard-1)/shard, func(ctx context.Context, k int, cutter *fleet.Cutter) shardOut {
		sub := sc
		sub.FirstDevice = sc.FirstDevice + k*shard
		sub.Devices = min(shard, sc.FirstDevice+sc.Devices-sub.FirstDevice)
		var prior *fleet.CampaignCheckpoint
		if k == start {
			prior = cut // nil unless resuming mid-shard
		}
		rep, c, err := runner.RunResumable(ctx, sub, prior, cutter)
		return shardOut{fleet: rep, cut: c, err: err}
	})
}

// runTortureJob walks the job's campaign through the same pipeline, over
// contiguous program ranges, so a killed daemon resumes at the first
// incomplete shard and the final merge is byte-identical to a one-shot run
// of the whole campaign. Torture cases have no mid-case cut, so an
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
	return s.runShards(ctx, j, (cfg.Programs+shard-1)/shard, func(ctx context.Context, k int, _ *fleet.Cutter) shardOut {
		sub := cfg
		sub.First = cfg.First + k*shard
		sub.Programs = min(shard, cfg.First+cfg.Programs-sub.First)
		rep, err := torture.Run(ctx, sub)
		return shardOut{torture: rep, err: err}
	})
}

// settle moves a job to a terminal state. Its caller is the job's journal
// writer: the scheduler for a job it claimed, Cancel for one it took out of
// the queue. The end record is on disk and the job counted first; only then
// do the state and its stream line become visible, together. A status reader
// or stream follower that sees the state therefore finds the end record in
// the journal and the terminal line in the stream.
func (s *Server) settle(j *Job, state, errMsg string) {
	persisted := s.appendJournal(j, s.frame(&record{Kind: recEnd, State: state, Error: errMsg}))
	// A report Marshal rejects leaves final nil; /report then replies with
	// an error instead of bytes.
	final, _ := j.jr.encodeFinal()
	mJobsFinished.With(state).Inc()
	j.mu.Lock()
	j.state, j.errMsg, j.final = state, errMsg, final
	j.jr, j.cut = nil, nil
	j.wakeLocked()
	j.mu.Unlock()
	if s.StateDir == "" {
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
// its journal cannot reproduce the report. An older job's pending is final:
// its writer settled it and then released s.mu in its own retire.
func (s *Server) retire(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hot = append(s.hot, j)
	n := len(s.hot) - retainFinished
	if n <= 0 {
		return
	}
	for _, old := range s.hot[:n] {
		if old.pending == nil {
			old.mu.Lock()
			old.final, old.cold = nil, true
			old.mu.Unlock()
		}
	}
	s.hot = append(s.hot[:0], s.hot[n:]...)
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
	return jr.encodeFinal()
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
