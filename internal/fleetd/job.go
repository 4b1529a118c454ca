// Package fleetd implements fleet-as-a-service: a long-running daemon that
// accepts fleet and torture campaigns as JSON jobs over HTTP, schedules them
// across a shared worker pool with a persistent build cache, streams progress
// as NDJSON, and checkpoints campaign state so a killed daemon resumes where
// it left off — with final reports byte-identical to one-shot CLI runs.
package fleetd

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

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
	// (devices per checkpointable shard; shards finish in order).
	ShardDevices int `json:"shardDevices,omitempty"`

	// Torture campaigns.
	Kind            string `json:"kind,omitempty"`     // ("differential")
	Programs        int    `json:"programs,omitempty"` // (1000)
	First           int    `json:"first,omitempty"`
	RestrictedEvery *int   `json:"restrictedEvery,omitempty"` // (kind default)
	Shrink          *bool  `json:"shrink,omitempty"`          // (true)
	// ShardPrograms overrides the server's torture shard size for this job
	// (programs per mergeable shard; shards finish in order).
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
	if s.Programs < 0 {
		return torture.Config{}, fmt.Errorf("fleetd: negative program count %d", s.Programs)
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

// validate rejects specs the scheduler could not run, without building: a
// fleet spec must resolve to a scenario the runner's own Validate accepts, a
// torture spec to a config torture's Validate accepts, and a shard size
// override may not be negative.
func (s *JobSpec) validate() error {
	if s.ShardDevices < 0 || s.ShardPrograms < 0 {
		return fmt.Errorf("fleetd: negative shard size (shardDevices %d, shardPrograms %d)",
			s.ShardDevices, s.ShardPrograms)
	}
	switch s.kind() {
	case TypeFleet:
		sc, err := s.scenario()
		if err != nil {
			return err
		}
		return sc.Validate()
	case TypeTorture:
		cfg, err := s.tortureConfig(0)
		if err != nil {
			return err
		}
		return cfg.Validate()
	default:
		return fmt.Errorf("fleetd: unknown job type %q", s.Type)
	}
}

// total is the number of devices (fleet) or programs (torture) the job
// covers; 0 for a spec the scheduler would reject.
func (s *JobSpec) total() int {
	if s.kind() == TypeTorture {
		cfg, err := s.tortureConfig(0)
		if err != nil {
			return 0
		}
		return cfg.Programs
	}
	sc, err := s.scenario()
	if err != nil {
		return 0
	}
	return sc.Devices
}

// Job is one scheduled campaign and its live progress. Its journal has one
// writer at a time: the Submit that creates it, then whichever takes it out
// of the server's queue, the scheduler that claims it or the Cancel that
// settles it.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`

	mu     sync.Mutex
	state  string
	errMsg string
	// queued is when the job was registered: its submit, or the LoadState
	// that restored it.
	queued time.Time
	done   int // devices (fleet) or programs (torture) finished
	total  int
	// jr is the job's progress: its journal, folded record by record, the
	// same way whether Submit created it, LoadState replayed it or the run
	// appended to it. Only the job's journal writer touches it, and a
	// terminal job drops it for final. cut is the interrupted fleet shard's
	// cut LoadState found beside the journal.
	jr  *journal
	cut *fleet.CampaignCheckpoint
	// final is a terminal job's merge, encoded compactly: the report of its
	// terminal stream line and, indented, of GET /report. cold marks a
	// terminal job that no longer holds final (restored by LoadState, or
	// past the retention window); its reads replay the journal.
	final []byte
	cold  bool
	// cancelled marks a user cancel (vs. a daemon shutdown, which re-queues);
	// cancel stops the run of a claimed job.
	cancelled bool
	cancel    func()

	// lines is the job's stream history of running lines (the terminal line
	// is built from final when read); changed is closed and replaced on
	// every append or state change, waking blocked stream readers.
	lines   [][]byte
	changed chan struct{}

	// pending holds records a failed append could not land, written ahead of
	// the next one. Only the job's journal writer touches it.
	pending []byte
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

// newJob registers a job whose progress is jr: a running line per shard
// record it holds.
func newJob(id string, jr *journal) *Job {
	j := &Job{ID: id, Spec: jr.spec, state: StateQueued, total: jr.spec.total(),
		done: jr.done(), jr: jr, queued: time.Now(), changed: make(chan struct{})}
	for _, done := range jr.progress {
		j.lines = append(j.lines, deltaLine(id, StateRunning, done, j.total))
	}
	return j
}

func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{ID: j.ID, Spec: j.Spec, State: j.state, Error: j.errMsg,
		Done: j.done, Total: j.total}
}

// isTerminal reports whether state is final.
func isTerminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// terminalLocked reports whether the job reached a final state. Callers hold
// j.mu.
func (j *Job) terminalLocked() bool {
	return isTerminal(j.state)
}

// wakeLocked wakes blocked stream readers. Callers hold j.mu.
func (j *Job) wakeLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// streamVersion is the "v" of every stream line.
const streamVersion = 2

// streamEvent is one NDJSON line of a job's progress stream (schema v2).
// Running lines carry only the counters; the terminal line adds the final
// merge (report or torture, omitted when no shard completed) and the error.
type streamEvent struct {
	V       int             `json:"v"`
	Job     string          `json:"job"`
	State   string          `json:"state"`
	Done    int             `json:"done"`
	Total   int             `json:"total"`
	Report  json.RawMessage `json:"report,omitempty"`
	Torture json.RawMessage `json:"torture,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// deltaLine encodes a stream line that carries no report.
func deltaLine(id, state string, done, total int) []byte {
	// Strings and ints only: Marshal cannot fail.
	line, _ := json.Marshal(&streamEvent{V: streamVersion, Job: id, State: state, Done: done, Total: total})
	return line
}
