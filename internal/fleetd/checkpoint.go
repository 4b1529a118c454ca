package fleetd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"amuletiso/internal/fleet"
	"amuletiso/internal/torture"
)

// Persistence: one JSON file per job under the state directory, rewritten
// atomically (tmp + rename) on every progress step, so a SIGKILL at any
// moment leaves either the previous or the next consistent state on disk —
// never a torn file. A restarted daemon re-registers every job it finds:
// terminal jobs keep serving their reports, interrupted jobs re-queue and
// continue from their last persisted cut.

// jobProgress is the resumable position inside a running fleet or torture
// job.
type jobProgress struct {
	// ShardsDone counts fully merged shards; Merged is their merge (nil
	// until the first completes).
	ShardsDone int           `json:"shardsDone"`
	Merged     *fleet.Report `json:"merged,omitempty"`
	// Current is the interrupted shard's consistent cut, when one was taken.
	Current *fleet.CampaignCheckpoint `json:"current,omitempty"`
	// TortureMerged is the torture analogue of Merged: the union of every
	// completed program-range shard. Torture cases have no mid-case cut, so
	// an interrupted shard reruns from its First index on resume.
	TortureMerged *torture.Report `json:"tortureMerged,omitempty"`
}

// jobFile is the on-disk form of one job.
type jobFile struct {
	ID       string          `json:"id"`
	Spec     JobSpec         `json:"spec"`
	State    string          `json:"state"`
	Error    string          `json:"error,omitempty"`
	Progress *jobProgress    `json:"progress,omitempty"`
	Report   *fleet.Report   `json:"report,omitempty"`
	Torture  *torture.Report `json:"torture,omitempty"`
}

// jobPath places job files in the state dir; IDs are "job-<n>" so the path
// is filesystem-safe by construction.
func (s *Server) jobPath(id string) string {
	return filepath.Join(s.StateDir, id+".json")
}

// persist writes the job's current state atomically. A nil StateDir disables
// persistence (in-memory daemon, used by tests that don't exercise resume).
func (s *Server) persist(j *Job, progress *jobProgress) {
	if s.StateDir == "" {
		return
	}
	j.mu.Lock()
	f := j.fileLocked(progress)
	j.mu.Unlock()
	// A failed write is counted on /metrics and leaves the previous state
	// file in place; the job keeps running in memory and the next persist
	// writes the state again.
	_ = s.writeJobFile(j, &f)
}

// fileLocked assembles the job's on-disk form. Callers hold j.mu.
func (j *Job) fileLocked(progress *jobProgress) jobFile {
	f := jobFile{
		ID:       j.ID,
		Spec:     j.Spec,
		State:    j.state,
		Error:    j.errMsg,
		Progress: progress,
		Report:   j.report,
		Torture:  j.torture,
	}
	// A running job persists as queued: that is exactly what it must become
	// if this file is the one a restarted daemon reads back.
	if f.State == StateRunning {
		f.State = StateQueued
	}
	return f
}

// writeJobFile replaces the job's state file atomically (tmp + rename). On
// failure the temporary file is removed, the failure counted, and the error
// returned; the previous state file, if any, is untouched.
func (s *Server) writeJobFile(j *Job, f *jobFile) error {
	data, err := json.Marshal(f)
	if err != nil {
		mPersistFailures.Inc()
		return err
	}
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	path := s.jobPath(j.ID)
	tmp := path + ".tmp"
	err = os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		mPersistFailures.Inc()
		return fmt.Errorf("fleetd: persisting %s: %w", j.ID, err)
	}
	return nil
}

// settle moves a job to state — a terminal one, or back to queued on
// shutdown. The state file is written first; only then do the new state and
// its stream line become visible, together. A status reader or stream
// follower that sees the state therefore finds the final file on disk and
// the final line in the stream.
func (s *Server) settle(j *Job, state, errMsg string, progress *jobProgress) {
	j.mu.Lock()
	f := j.fileLocked(progress)
	f.State, f.Error = state, errMsg
	ev := streamEvent{Job: j.ID, State: state, Done: j.done, Total: j.total,
		Report: j.report, Torture: j.torture, Error: errMsg}
	j.mu.Unlock()
	if s.StateDir != "" {
		_ = s.writeJobFile(j, &f) // counted on /metrics; the state below still publishes
	}
	line, err := json.Marshal(&ev)
	if err != nil {
		line = nil
	}
	j.publish(state, errMsg, line)
}

// LoadState re-registers every job found in the state directory. Terminal
// jobs come back served-only; queued/interrupted jobs re-enter the queue
// with their persisted progress. A truncated or corrupt job file is renamed
// to <name>.corrupt, counted on /metrics, and skipped, so one bad file never
// stops the other jobs from resuming. Call before Start.
func (s *Server) LoadState() error {
	if s.StateDir == "" {
		return nil
	}
	entries, err := os.ReadDir(s.StateDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var files []jobFile
	maxID := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(s.StateDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// The file's own number keeps IDs monotonic even when the file is
		// quarantined, so a new job never reuses a corrupt job's name.
		id := strings.TrimSuffix(name, ".json")
		if n := jobNum(id); n > maxID {
			maxID = n
		}
		var f jobFile
		if err := json.Unmarshal(data, &f); err != nil || f.ID != id {
			mCorruptStateFiles.Inc()
			if err := os.Rename(path, path+".corrupt"); err != nil {
				return err
			}
			continue
		}
		files = append(files, f)
	}
	// Submission order is the ID order; re-queue in the same order.
	sort.Slice(files, func(i, j int) bool { return jobNum(files[i].ID) < jobNum(files[j].ID) })

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range files {
		j := newJob(f.ID, f.Spec)
		j.state = f.State
		j.errMsg = f.Error
		j.report = f.Report
		j.torture = f.Torture
		j.resume = f.Progress
		switch f.State {
		case StateDone:
			if j.report != nil {
				j.done, j.total = j.report.Devices, j.report.Devices
			}
			if j.torture != nil {
				j.done, j.total = j.torture.Programs, j.torture.Programs
			}
		case StateQueued, StateRunning:
			j.state = StateQueued
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	if maxID >= s.nextID {
		s.nextID = maxID + 1
	}
	return nil
}

// jobNum extracts the numeric part of a "job-<n>" ID (0 if malformed).
func jobNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}
