package fleetd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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
)

// Server is the fleetd scheduler plus its HTTP surface. Configure the
// exported fields, then LoadState (optional) and Start; Handler serves the
// API, obs metrics and pprof on one mux.
//
// Jobs run one at a time in submission order — each job's shards already
// saturate the runner's worker pool, so job-level parallelism would only
// interleave checkpoint state.
type Server struct {
	// Runner executes fleet shards; nil gets a private runner. Share one
	// across the daemon's lifetime so the build cache and page arena persist
	// between jobs.
	Runner *fleet.Runner
	// StateDir persists job state for crash recovery ("" = memory only).
	StateDir string
	// ShardDevices is the default scheduling shard size: each job's fleet is
	// cut into shards of this many devices, run sequentially, merged and
	// persisted as each completes. <= 0 runs each fleet as a single shard.
	ShardDevices int
	// ShardPrograms is the torture analogue of ShardDevices: programs per
	// sequentially-scheduled, mergeable campaign shard. <= 0 runs each
	// campaign as a single shard.
	ShardPrograms int
	// SegmentMS is the virtual-time interval between in-shard device
	// snapshot refreshes (0 = 1000).
	SegmentMS uint64
	// FlushEvery is the real-time cadence of mid-shard checkpoint writes
	// (0 = 500ms).
	FlushEvery time.Duration

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string
	nextID  int
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
		jobs:     make(map[string]*Job),
		nextID:   1,
		wake:     make(chan struct{}, 1),
	}
}

func (s *Server) segmentMS() uint64 {
	if s.SegmentMS > 0 {
		return s.SegmentMS
	}
	return 1000
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

// Submit validates and enqueues a job, returning its ID.
func (s *Server) Submit(spec JobSpec) (string, error) {
	if err := spec.validate(); err != nil {
		return "", err
	}
	s.mu.Lock()
	id := fmt.Sprintf("job-%d", s.nextID)
	s.nextID++
	j := newJob(id, spec)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	mJobsSubmitted.Inc()
	s.persist(j, nil)
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
		s.settle(j, StateCancelled, "", nil)
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

// streamEvent is one NDJSON line of a job's progress stream: the job's state
// plus, for fleet jobs, the merge of every completed shard so far.
type streamEvent struct {
	Job     string          `json:"job"`
	State   string          `json:"state"`
	Done    int             `json:"done"`
	Total   int             `json:"total"`
	Report  *fleet.Report   `json:"report,omitempty"`
	Torture *torture.Report `json:"torture,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// emit appends one stream line reflecting the job's current state.
func (s *Server) emit(j *Job) {
	j.mu.Lock()
	ev := streamEvent{Job: j.ID, State: j.state, Done: j.done, Total: j.total,
		Report: j.report, Torture: j.torture, Error: j.errMsg}
	j.mu.Unlock()
	line, err := json.Marshal(&ev)
	if err != nil {
		return
	}
	j.appendLine(line)
}

// runJob executes one job to a terminal state — or back to queued when the
// daemon itself is shutting down mid-run.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.ctx)
	j.mu.Lock()
	j.state = StateRunning
	j.cancel = cancel
	resumed := j.resume != nil
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
	s.settle(j, state, errMsg, s.progressOf(j))
	if state != StateQueued {
		mJobsFinished.With(state).Inc()
	}
}

// progressOf snapshots a job's resumable position for persistence.
func (s *Server) progressOf(j *Job) *jobProgress {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resume
}

// runFleetJob walks the job's fleet shard by shard, merging and persisting
// after each. Shards are contiguous FirstDevice ranges, so the running merge
// is always a valid partial campaign and the final merge is byte-identical
// to a one-shot run of the whole scenario.
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
	if j.resume != nil {
		merged, cut, start = j.resume.Merged, j.resume.Current, j.resume.ShardsDone
	}
	j.total = sc.Devices
	if merged != nil {
		j.report = merged
		j.done = merged.Devices
	}
	j.mu.Unlock()

	runner := s.Runner
	if runner == nil {
		runner = &fleet.Runner{Cache: fleet.NewBuildCache()}
		s.Runner = runner
	}

	nshards := (sc.Devices + shard - 1) / shard
	for k := start; k < nshards; k++ {
		sub := sc
		sub.FirstDevice = sc.FirstDevice + k*shard
		sub.Devices = shard
		if rest := sc.FirstDevice + sc.Devices - sub.FirstDevice; rest < shard {
			sub.Devices = rest
		}
		var prior *fleet.CampaignCheckpoint
		if k == start {
			prior = cut // nil unless resuming mid-shard
		}
		opt := fleet.ResumableOptions{
			SegmentMS: s.segmentMS(),
			Flush:     s.flushEvery(),
			Sink: func(c *fleet.CampaignCheckpoint) {
				s.setProgress(j, &jobProgress{ShardsDone: k, Merged: merged, Current: c})
				s.persist(j, s.progressOf(j))
			},
		}
		rep, c, err := runner.RunResumable(ctx, sub, prior, opt)
		if err != nil {
			// Interrupted (cancel or shutdown): persist the final cut so a
			// resume continues this shard instead of rerunning it.
			s.setProgress(j, &jobProgress{ShardsDone: k, Merged: merged, Current: c})
			s.persist(j, s.progressOf(j))
			return err
		}
		if merged == nil {
			merged = rep
		} else if err := merged.Merge(rep); err != nil {
			return err
		}
		mShardsMerged.Inc()
		j.mu.Lock()
		j.report = merged
		j.done = merged.Devices
		j.mu.Unlock()
		s.setProgress(j, &jobProgress{ShardsDone: k + 1, Merged: merged})
		s.persist(j, s.progressOf(j))
		s.emit(j)
	}
	return nil
}

// setProgress replaces the job's resumable position.
func (s *Server) setProgress(j *Job, p *jobProgress) {
	j.mu.Lock()
	j.resume = p
	j.mu.Unlock()
}

// runTortureJob walks the job's campaign shard by shard — contiguous program
// ranges, exactly as runFleetJob walks device ranges — merging and persisting
// after each, so a killed daemon resumes at the first incomplete shard and
// the final merge is byte-identical to a one-shot run of the whole campaign.
// Torture cases have no mid-case cut, so an interrupted shard reruns whole.
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
	if j.resume != nil {
		merged, start = j.resume.TortureMerged, j.resume.ShardsDone
	}
	j.total = cfg.Programs
	if merged != nil {
		j.torture = merged
		j.done = merged.Programs
	}
	j.mu.Unlock()

	nshards := (cfg.Programs + shard - 1) / shard
	for k := start; k < nshards; k++ {
		sub := cfg
		sub.First = cfg.First + k*shard
		sub.Programs = shard
		if rest := cfg.First + cfg.Programs - sub.First; rest < shard {
			sub.Programs = rest
		}
		rep, err := torture.Run(ctx, sub)
		if err != nil {
			return err
		}
		if merged == nil {
			merged = rep
		} else if err := merged.Merge(rep); err != nil {
			return err
		}
		mShardsMerged.Inc()
		j.mu.Lock()
		j.torture = merged
		j.done = merged.Programs
		j.mu.Unlock()
		s.setProgress(j, &jobProgress{ShardsDone: k + 1, TortureMerged: merged})
		s.persist(j, s.progressOf(j))
		s.emit(j)
	}
	return nil
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
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("fleetd: bad job spec: %w", err))
		return
	}
	id, err := s.Submit(spec)
	if err != nil {
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

// handleReport serves a finished fleet job's report with exactly the
// encoding `amuletfleet -json` uses, so the two outputs byte-compare equal.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("fleetd: no job %s", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	state, rep, tort := j.state, j.report, j.torture
	j.mu.Unlock()
	if state != StateDone {
		httpError(w, http.StatusConflict, fmt.Errorf("fleetd: job %s is %s, not done", j.ID, state))
		return
	}
	if tort != nil {
		writeJSON(w, tort)
		return
	}
	writeJSON(w, rep)
}

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
			if _, err := w.Write(line); err != nil {
				return
			}
			if _, err := w.Write([]byte{'\n'}); err != nil {
				return
			}
		}
		if len(lines) > 0 && flusher != nil {
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
