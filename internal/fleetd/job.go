// Package fleetd implements fleet-as-a-service: a long-running daemon that
// accepts fleet and torture campaigns as JSON jobs over HTTP, schedules them
// across a shared worker pool with a persistent build cache, streams progress
// as NDJSON, and checkpoints campaign state so a killed daemon resumes where
// it left off — with final reports byte-identical to one-shot CLI runs.
package fleetd

import (
	"fmt"
	"strings"
	"sync"

	"amuletiso"
	"amuletiso/internal/apps"
	"amuletiso/internal/cc"
	"amuletiso/internal/fleet"
	"amuletiso/internal/kernel"
	"amuletiso/internal/torture"
)

// Job types.
const (
	TypeFleet   = "fleet"
	TypeTorture = "torture"
)

// Job states. queued → running → one of the three terminal states; a killed
// daemon re-queues running jobs on resume.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobSpec is the wire form of a submitted campaign. Zero values take the
// same defaults as the amuletfleet CLI flags, so a spec of {} runs the
// canonical 100-device MPU minute and GET /jobs/{id}/report byte-matches
// `amuletfleet -json`.
type JobSpec struct {
	Name string `json:"name,omitempty"`
	// Type selects the campaign family: "fleet" (default) or "torture".
	Type string `json:"type,omitempty"`

	// Fleet campaigns (defaults in parentheses mirror amuletfleet flags).
	Apps           []string `json:"apps,omitempty"`       // (full nine-app suite)
	Mode           string   `json:"mode,omitempty"`       // ("mpu")
	DurationMS     uint64   `json:"durationMS,omitempty"` // (60000)
	Devices        int      `json:"devices,omitempty"`    // (100)
	FirstDevice    int      `json:"firstDevice,omitempty"`
	Seed           uint64   `json:"seed,omitempty"` // (1)
	ButtonEveryMS  uint64   `json:"buttonEveryMS,omitempty"`
	FaultEveryMS   uint64   `json:"faultEveryMS,omitempty"`
	FaultApp       int      `json:"faultApp,omitempty"`
	MaxFaults      *int     `json:"maxFaults,omitempty"` // (3)
	BackoffMS      *uint64  `json:"backoffMS,omitempty"` // (1000)
	WatchdogBudget uint64   `json:"watchdogBudget,omitempty"`
	FaultTrace     bool     `json:"faultTrace,omitempty"`
	// Intermittent power: a harvest trace spec ("solar", "kinetic:2.5", ...)
	// or a forced brownout period, exactly as the amuletfleet flags.
	PowerTrace      string `json:"powerTrace,omitempty"`
	BrownoutEveryMS uint64 `json:"brownoutEveryMS,omitempty"`
	BrownoutOffMS   uint64 `json:"brownoutOffMS,omitempty"`
	// ShardDevices overrides the server's scheduling shard size for this job
	// (devices per sequentially-scheduled, checkpointable shard).
	ShardDevices int `json:"shardDevices,omitempty"`

	// Torture campaigns.
	Kind            string `json:"kind,omitempty"`     // ("differential")
	Programs        int    `json:"programs,omitempty"` // (1000)
	First           int    `json:"first,omitempty"`
	RestrictedEvery *int   `json:"restrictedEvery,omitempty"` // (kind default)
	Shrink          *bool  `json:"shrink,omitempty"`          // (true)
	// ShardPrograms overrides the server's torture shard size for this job
	// (programs per sequentially-scheduled, mergeable shard).
	ShardPrograms int `json:"shardPrograms,omitempty"`
}

// kind normalizes the job type.
func (s *JobSpec) kind() string {
	if s.Type == "" {
		return TypeFleet
	}
	return s.Type
}

// scenario resolves a fleet spec against the bundled app registry, applying
// the amuletfleet flag defaults so daemon-run reports byte-match CLI runs.
func (s *JobSpec) scenario() (fleet.Scenario, error) {
	var list []apps.App
	if len(s.Apps) == 0 {
		list = amuletiso.Suite()
	} else {
		for _, name := range s.Apps {
			app, ok := amuletiso.AppByName(strings.TrimSpace(name))
			if !ok {
				return fleet.Scenario{}, fmt.Errorf("fleetd: no bundled app %q", name)
			}
			list = append(list, app)
		}
	}
	modeName := s.Mode
	if modeName == "" {
		modeName = "mpu"
	}
	var mode cc.Mode
	found := false
	for _, m := range cc.Modes {
		if strings.EqualFold(m.String(), modeName) {
			mode, found = m, true
			break
		}
	}
	if !found {
		return fleet.Scenario{}, fmt.Errorf("fleetd: unknown mode %q", s.Mode)
	}
	name := s.Name
	if name == "" {
		name = "fleet"
	}
	devices := s.Devices
	if devices == 0 {
		devices = 100
	}
	duration := s.DurationMS
	if duration == 0 {
		duration = 60_000
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	maxFaults := 3
	if s.MaxFaults != nil {
		maxFaults = *s.MaxFaults
	}
	backoff := uint64(1000)
	if s.BackoffMS != nil {
		backoff = *s.BackoffMS
	}
	return fleet.Scenario{
		Name:            name,
		Apps:            list,
		Mode:            mode,
		DurationMS:      duration,
		Devices:         devices,
		FirstDevice:     s.FirstDevice,
		Seed:            seed,
		ButtonEveryMS:   s.ButtonEveryMS,
		FaultEveryMS:    s.FaultEveryMS,
		FaultApp:        s.FaultApp,
		WatchdogBudget:  s.WatchdogBudget,
		FaultTrace:      s.FaultTrace,
		PowerTrace:      s.PowerTrace,
		BrownoutEveryMS: s.BrownoutEveryMS,
		BrownoutOffMS:   s.BrownoutOffMS,
		Policy:          &kernel.RestartPolicy{MaxFaults: maxFaults, BackoffMS: backoff},
	}, nil
}

// tortureConfig resolves a torture spec onto the campaign defaults.
func (s *JobSpec) tortureConfig(workers int) (torture.Config, error) {
	kind := s.Kind
	if kind == "" {
		kind = torture.KindDifferential
	}
	cfg := torture.DefaultConfig(kind)
	cfg.Workers = workers
	if s.Programs > 0 {
		cfg.Programs = s.Programs
	}
	cfg.First = s.First
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.RestrictedEvery != nil {
		cfg.RestrictedEvery = *s.RestrictedEvery
	}
	if s.Shrink != nil {
		cfg.Shrink = *s.Shrink
	}
	return cfg, nil
}

// validate rejects specs the scheduler could not run, without building.
func (s *JobSpec) validate() error {
	switch s.kind() {
	case TypeFleet:
		_, err := s.scenario()
		return err
	case TypeTorture:
		cfg, err := s.tortureConfig(0)
		if err != nil {
			return err
		}
		switch cfg.Kind {
		case torture.KindDifferential, torture.KindAdversarial, torture.KindHosted, torture.KindBrownout:
			return nil
		default:
			return fmt.Errorf("fleetd: unknown torture kind %q", cfg.Kind)
		}
	default:
		return fmt.Errorf("fleetd: unknown job type %q", s.Type)
	}
}

// Job is one scheduled campaign and its live progress.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`

	mu      sync.Mutex
	state   string
	errMsg  string
	done    int // devices (fleet) or programs (torture) finished
	total   int
	report  *fleet.Report
	torture *torture.Report
	// resume is the persisted progress a restarted daemon loaded for this
	// job: completed-shard merge plus the interrupted shard's cut.
	resume *jobProgress
	// cancelled marks a user cancel (vs. a daemon shutdown, which re-queues).
	cancelled bool
	cancel    func()

	// lines is the job's NDJSON stream history; changed is closed and
	// replaced on every append, waking blocked stream readers.
	lines   [][]byte
	changed chan struct{}

	// persistMu serializes state-file writes for this job: the flusher
	// goroutine and the scheduler both persist, and they must not share the
	// temp file mid-write.
	persistMu sync.Mutex
}

// JobView is the JSON shape of list/get responses.
type JobView struct {
	ID    string  `json:"id"`
	Spec  JobSpec `json:"spec"`
	State string  `json:"state"`
	Error string  `json:"error,omitempty"`
	Done  int     `json:"done"`
	Total int     `json:"total"`
}

func newJob(id string, spec JobSpec) *Job {
	return &Job{ID: id, Spec: spec, state: StateQueued, changed: make(chan struct{})}
}

func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{ID: j.ID, Spec: j.Spec, State: j.state, Error: j.errMsg,
		Done: j.done, Total: j.total}
}

// terminal reports whether the job reached a final state. Callers hold j.mu.
func (j *Job) terminalLocked() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
}

// appendLine records one NDJSON stream line (without trailing newline) and
// wakes readers.
func (j *Job) appendLine(line []byte) {
	j.mu.Lock()
	j.lines = append(j.lines, line)
	close(j.changed)
	j.changed = make(chan struct{})
	j.mu.Unlock()
}

// publish transitions the job and appends the stream line announcing the
// new state in one critical section, waking readers once: whoever observes
// the state also finds its line, so a stream that ends on a terminal state
// always ends with that state's line. A nil line publishes the state alone.
func (j *Job) publish(state, errMsg string, line []byte) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	if line != nil {
		j.lines = append(j.lines, line)
	}
	close(j.changed)
	j.changed = make(chan struct{})
	j.mu.Unlock()
}
