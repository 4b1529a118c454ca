package fleetd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"amuletiso/internal/fleet"
	"amuletiso/internal/torture"
)

func newTestServer(t *testing.T, stateDir string) *Server {
	t.Helper()
	s := NewServer(stateDir)
	s.Runner = &fleet.Runner{Workers: 2, Cache: fleet.NewBuildCache()}
	s.SegmentMS = 500
	s.FlushEvery = 2 * time.Millisecond
	return s
}

// testSpec is a small sharded fleet job built from bundled apps.
func testSpec() JobSpec {
	maxFaults := 3
	backoff := uint64(400)
	return JobSpec{
		Name:          "test",
		Apps:          []string{"pedometer", "hr"},
		Mode:          "mpu",
		DurationMS:    4000,
		Devices:       6,
		Seed:          42,
		ButtonEveryMS: 1700,
		FaultEveryMS:  2300,
		FaultApp:      1,
		MaxFaults:     &maxFaults,
		BackoffMS:     &backoff,
		ShardDevices:  2,
	}
}

// cliBytes renders a report exactly the way `amuletfleet -json` (and the
// daemon's report endpoint) does.
func cliBytes(t *testing.T, rep *fleet.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oneShot runs the spec's scenario through the plain CLI path.
func oneShot(t *testing.T, spec JobSpec) *fleet.Report {
	t.Helper()
	sc, err := spec.scenario()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

// TestDaemonJobMatchesCLIBytes submits a job over HTTP, follows its NDJSON
// stream to completion, and byte-compares the daemon's report against the
// amuletfleet encoding of a one-shot run — the core serving contract.
func TestDaemonJobMatchesCLIBytes(t *testing.T) {
	s := newTestServer(t, "")
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := testSpec()
	id := postJob(t, ts, spec)
	if id != "job-1" {
		t.Fatalf("first job id = %q", id)
	}

	// The stream must replay history, emit one merged snapshot per shard,
	// and terminate with the done state.
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", got)
	}
	var events []streamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("stream carried %d events, want at least one per shard", len(events))
	}
	last := events[len(events)-1]
	if last.State != StateDone || last.Done != spec.Devices {
		t.Fatalf("final stream event: state=%s done=%d", last.State, last.Done)
	}
	prev := 0
	for _, ev := range events[:len(events)-1] {
		if ev.Report != nil && ev.Report.Devices < prev {
			t.Fatalf("merged device count went backwards: %d -> %d", prev, ev.Report.Devices)
		}
		if ev.Report != nil {
			prev = ev.Report.Devices
		}
	}

	rep, err := http.Get(ts.URL + "/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(rep.Body); err != nil {
		t.Fatal(err)
	}
	want := cliBytes(t, oneShot(t, spec))
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("daemon report bytes differ from amuletfleet -json output")
	}

	list, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var views []JobView
	if err := json.NewDecoder(list.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].State != StateDone {
		t.Fatalf("job list = %+v", views)
	}
	if r404, _ := http.Get(ts.URL + "/jobs/nope"); r404.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job status = %d", r404.StatusCode)
	}
}

// TestKilledDaemonResumesByteIdentity is the tentpole acceptance check at the
// daemon layer: stop the daemon mid-campaign (the graceful twin of SIGKILL —
// the CI smoke test covers the literal kill -9), restart over the same state
// dir, and require the finished report to byte-match an uninterrupted run.
func TestKilledDaemonResumesByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three multi-minute virtual campaigns; fleet-level byte identity is covered by TestKilledAndResumedCampaignByteIdentity")
	}
	dir := t.TempDir()
	spec := testSpec()
	// Big enough that the daemon is reliably mid-campaign when stopped: the
	// simulator clears tens of device-seconds per wall millisecond.
	spec.Devices = 20
	spec.DurationMS = 600_000
	want := cliBytes(t, oneShot(t, spec))

	s1 := newTestServer(t, dir)
	s1.Start()
	id, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one shard merge, then pull the plug mid-job.
	waitFor(t, "first shard merge", func() bool {
		j, _ := s1.Job(id)
		return j.view().Done >= 2
	})
	s1.Stop()

	data, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var f jobFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.State != StateQueued {
		t.Fatalf("interrupted job persisted as %q, want queued", f.State)
	}
	if f.Progress == nil || f.Progress.Merged == nil {
		t.Fatal("interrupted job persisted no resumable progress")
	}
	if f.Progress.Merged.Devices >= spec.Devices {
		t.Fatal("job finished before the daemon stopped; interruption not exercised")
	}

	s2 := newTestServer(t, dir)
	if err := s2.LoadState(); err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Stop()
	waitFor(t, "resumed job completion", func() bool {
		j, ok := s2.Job(id)
		return ok && j.view().State == StateDone
	})

	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("killed+resumed daemon report differs from uninterrupted run")
	}

	// IDs continue past everything on disk.
	id2, err := s2.Submit(JobSpec{Type: TypeTorture, Programs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != "job-2" {
		t.Fatalf("post-resume job id = %q, want job-2", id2)
	}
}

// TestCancelJobs covers both cancellation paths: a queued job dies
// immediately; a running job is interrupted and lands in cancelled.
func TestCancelJobs(t *testing.T) {
	s := newTestServer(t, "")
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	long := testSpec()
	long.Devices = 20
	long.DurationMS = 600_000
	running, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to start", func() bool {
		j, _ := s.Job(running)
		return j.view().State == StateRunning
	})
	queued, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/jobs/"+queued+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued job: status %d", resp.StatusCode)
	}
	if j, _ := s.Job(queued); j.view().State != StateCancelled {
		t.Fatalf("queued job state = %s after cancel", j.view().State)
	}

	if err := s.Cancel(running); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "running job to cancel", func() bool {
		j, _ := s.Job(running)
		return j.view().State == StateCancelled
	})
	if err := s.Cancel(running); err == nil {
		t.Fatal("cancelling a terminal job succeeded")
	}
}

// TestTortureJob runs the second job family end to end.
func TestTortureJob(t *testing.T) {
	s := newTestServer(t, "")
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := postJob(t, ts, JobSpec{Type: TypeTorture, Kind: torture.KindDifferential, Programs: 5, Seed: 3})
	waitFor(t, "torture job completion", func() bool {
		j, _ := s.Job(id)
		return j.view().State == StateDone
	})
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep torture.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Programs != 5 {
		t.Fatalf("torture report programs = %d", rep.Programs)
	}
}

// TestShardedTortureResumesByteIdentity extends the kill/resume contract to
// the torture job family: a crash-consistency campaign cut into program
// shards, interrupted mid-job and finished by a fresh daemon, must serve
// exactly the bytes of a one-shot torture.Run of the whole campaign.
func TestShardedTortureResumesByteIdentity(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Type: TypeTorture, Kind: torture.KindBrownout, Programs: 16, Seed: 9, ShardPrograms: 2}

	cfg, err := spec.tortureConfig(2) // newTestServer runners use 2 workers
	if err != nil {
		t.Fatal(err)
	}
	whole, err := torture.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(whole); err != nil {
		t.Fatal(err)
	}

	s1 := newTestServer(t, dir)
	s1.Start()
	id, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one shard merge, then pull the plug mid-campaign.
	waitFor(t, "first torture shard merge", func() bool {
		j, _ := s1.Job(id)
		return j.view().Done >= 2
	})
	s1.Stop()

	data, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var f jobFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.State != StateQueued {
		t.Fatalf("interrupted torture job persisted as %q, want queued", f.State)
	}
	if f.Progress == nil || f.Progress.TortureMerged == nil {
		t.Fatal("interrupted torture job persisted no resumable shard union")
	}
	if f.Progress.TortureMerged.Programs >= spec.Programs {
		t.Fatal("job finished before the daemon stopped; interruption not exercised")
	}

	s2 := newTestServer(t, dir)
	if err := s2.LoadState(); err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Stop()
	waitFor(t, "resumed torture job completion", func() bool {
		j, ok := s2.Job(id)
		return ok && j.view().State == StateDone
	})

	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("killed+resumed torture campaign differs from one-shot run")
	}
}

// TestSubmitValidation rejects malformed specs at the door, and the report
// endpoint refuses jobs that are not done.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, spec := range map[string]JobSpec{
		"unknown app":  {Apps: []string{"no-such-app"}},
		"unknown mode": {Mode: "ring0"},
		"unknown type": {Type: "cron"},
		"unknown kind": {Type: TypeTorture, Kind: "gentle"},
	} {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// Queued (scheduler never started) job has no report yet.
	id, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report of queued job: status %d, want 409", resp.StatusCode)
	}
}

// TestMetricsOnSameMux: the obs registry rides the job mux, so one port
// serves both the API and scrapes.
func TestMetricsOnSameMux(t *testing.T) {
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"amulet_fleetd_jobs_submitted_total",
		"amulet_fleetd_shards_merged_total",
		"amulet_fleetd_persist_failures_total",
		"amulet_fleetd_state_files_corrupt_total",
	} {
		if !strings.Contains(buf.String(), metric) {
			t.Errorf("metrics page missing %s", metric)
		}
	}
}

// TestPersistedFilesAreAtomic: no .tmp residue survives a persist, and the
// state file decodes cleanly at every observation point during a run.
func TestPersistedFilesAreAtomic(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	s.Start()
	defer s.Stop()
	id, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job completion", func() bool {
		j, _ := s.Job(id)
		if data, err := os.ReadFile(filepath.Join(dir, id+".json")); err == nil {
			var f jobFile
			if jsonErr := json.Unmarshal(data, &f); jsonErr != nil {
				t.Fatalf("torn state file mid-run: %v", jsonErr)
			}
		}
		return j.view().State == StateDone
	})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	if fmt.Sprintf("%s.json", id) != entries[0].Name() {
		t.Fatalf("unexpected state file %s", entries[0].Name())
	}
}

// followStream reads a job's NDJSON stream from the start until the server
// ends it and returns the decoded lines.
func followStream(ts *httptest.Server, id string) ([]streamEvent, error) {
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var events []streamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	return events, sc.Err()
}

// TestStreamsEndWithTerminalLine: every job's stream, followed from submit,
// ends with a line carrying the job's terminal state — done, failed,
// cancelled while running, and cancelled while queued — and the moment a
// status read shows that state, the state file on disk already holds it.
func TestStreamsEndWithTerminalLine(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := testSpec()
	bad.FaultApp = 7 // passes submit-time validation, fails when the fleet runs
	long := testSpec()
	long.Devices = 20
	long.DurationMS = 600_000
	specs := []JobSpec{
		testSpec(),
		{Type: TypeTorture, Programs: 4, ShardPrograms: 2},
		bad,
		long,
		testSpec(),
	}
	want := []string{StateDone, StateDone, StateFailed, StateCancelled, StateCancelled}

	type result struct {
		events []streamEvent
		err    error
	}
	ids := make([]string, len(specs))
	streams := make([]chan result, len(specs))
	for i, spec := range specs {
		ids[i] = postJob(t, ts, spec)
		streams[i] = make(chan result, 1)
		go func(id string, out chan<- result) {
			ev, err := followStream(ts, id)
			out <- result{ev, err}
		}(ids[i], streams[i])
	}

	// The long job is cancelled once running, the job behind it while still
	// queued.
	waitFor(t, "long job to start", func() bool {
		j, _ := s.Job(ids[3])
		return j.view().State == StateRunning
	})
	if err := s.Cancel(ids[4]); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(ids[3]); err != nil {
		t.Fatal(err)
	}

	for i, id := range ids {
		var state string
		waitFor(t, id+" to settle", func() bool {
			j, _ := s.Job(id)
			state = j.view().State
			return state != StateQueued && state != StateRunning
		})
		data, err := os.ReadFile(filepath.Join(dir, id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var f jobFile
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		if state != want[i] || f.State != state {
			t.Fatalf("%s: status %s, state file %s, want %s in both", id, state, f.State, want[i])
		}
		res := <-streams[i]
		if res.err != nil {
			t.Fatalf("%s: stream: %v", id, res.err)
		}
		if n := len(res.events); n == 0 || res.events[n-1].State != want[i] {
			t.Fatalf("%s: stream of %d lines does not end with a %s line", id, n, want[i])
		}
	}
}

// TestLoadStateQuarantinesCorruptFile: a truncated job file next to a good
// queued one is renamed to *.corrupt and counted, and the good job resumes.
func TestLoadStateQuarantinesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(testSpec()); err != nil {
			t.Fatal(err)
		}
	}
	bad := filepath.Join(dir, "job-2.json")
	data, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	before := mCorruptStateFiles.Value()
	r := newTestServer(t, dir)
	if err := r.LoadState(); err != nil {
		t.Fatalf("one corrupt file failed the whole resume: %v", err)
	}
	if got := mCorruptStateFiles.Value() - before; got != 1 {
		t.Fatalf("corrupt-file counter moved by %d, want 1", got)
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	if _, ok := r.Job("job-2"); ok {
		t.Fatal("corrupt job registered")
	}
	j, ok := r.Job("job-1")
	if !ok || j.view().State != StateQueued {
		t.Fatal("good queued job did not resume")
	}
	// IDs stay monotonic past the quarantined file.
	if id, err := r.Submit(testSpec()); err != nil || id != "job-3" {
		t.Fatalf("next submit got %q (%v), want job-3", id, err)
	}
}

// TestPersistFailures: a state dir that cannot take the file (a path under a
// regular file; root ignores read-only modes) and a rename that fails (the
// target is a non-empty directory) both return the error from
// writeJobFile, count it on /metrics, and leave no .tmp behind.
func TestPersistFailures(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "job-1.json", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, stateDir := range map[string]string{
		"unwritable dir": filepath.Join(file, "state"),
		"rename fails":   blocked,
	} {
		s := newTestServer(t, stateDir)
		j := newJob("job-1", testSpec())
		before := mPersistFailures.Value()
		if err := s.writeJobFile(j, &jobFile{ID: j.ID, Spec: j.Spec}); err == nil {
			t.Errorf("%s: writeJobFile reported success", name)
		}
		if got := mPersistFailures.Value() - before; got != 1 {
			t.Errorf("%s: persist-failure counter moved by %d, want 1", name, got)
		}
		if _, err := os.Stat(s.jobPath(j.ID) + ".tmp"); err == nil {
			t.Errorf("%s: .tmp left behind", name)
		}
	}
}

// TestSubmitBodyBounded: a POST /jobs body past the 1 MiB bound is refused
// with 413 before it is decoded.
func TestSubmitBodyBounded(t *testing.T) {
	s := newTestServer(t, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"name":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if len(s.Jobs()) != 0 {
		t.Fatal("oversized body registered a job")
	}
}
