package fleetd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	if last.State != StateDone || last.Done != spec.Devices || last.V != streamVersion {
		t.Fatalf("final stream event: v=%d state=%s done=%d", last.V, last.State, last.Done)
	}
	// Running lines are deltas: counters only, never a report.
	prev := 0
	for _, ev := range events[:len(events)-1] {
		if ev.V != streamVersion || ev.State != StateRunning || ev.Total != spec.Devices {
			t.Fatalf("running line: %+v", ev)
		}
		if ev.Report != nil || ev.Torture != nil {
			t.Fatal("running line carries a report")
		}
		if ev.Done <= prev {
			t.Fatalf("done count did not advance: %d -> %d", prev, ev.Done)
		}
		prev = ev.Done
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
	// The terminal line carries the same report, compact.
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(last.Report, compact.Bytes()) {
		t.Fatal("terminal stream line's report differs from the served report")
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

	jr := readJournal(t, dir, id)
	if jr.state != "" {
		t.Fatalf("interrupted job journaled end state %q, want none", jr.state)
	}
	if jr.merged == nil {
		t.Fatal("interrupted job journaled no completed shard")
	}
	if jr.merged.Devices >= spec.Devices {
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

	jr := readJournal(t, dir, id)
	if jr.state != "" {
		t.Fatalf("interrupted torture job journaled end state %q, want none", jr.state)
	}
	if jr.torture == nil {
		t.Fatal("interrupted torture job journaled no completed shard")
	}
	if jr.torture.Programs >= spec.Programs {
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
		// Specs that resolve to a scenario the fleet runner rejects.
		"negative devices":        {Devices: -5},
		"unparsable power trace":  {PowerTrace: "moonlight"},
		"fault app out of range":  {FaultEveryMS: 3000, FaultApp: 9},
		"power trace + brownouts": {PowerTrace: "solar", BrownoutEveryMS: 400},
		"app named twice":         {Apps: []string{"hr", "hr"}},
		// Negative counts and shard sizes are refused, not defaulted.
		"negative programs":       {Type: TypeTorture, Programs: -5},
		"negative first program":  {Type: TypeTorture, First: -1},
		"negative shard devices":  {ShardDevices: -1},
		"negative shard programs": {Type: TypeTorture, ShardPrograms: -1},
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
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected specs registered %d jobs", len(jobs))
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
		"amulet_fleetd_persist_bytes_total",
		"amulet_fleetd_persist_latency_us_bucket",
		"amulet_fleetd_state_files_corrupt_total",
		"amulet_fleetd_shard_wall_us_bucket",
		"amulet_fleetd_queue_wait_us_bucket",
		"amulet_fleet_snapshots_total",
	} {
		if !strings.Contains(buf.String(), metric) {
			t.Errorf("metrics page missing %s", metric)
		}
	}
}

// TestPersistedFilesAreAtomic: at every observation point during a run the
// journal replays cleanly — its completed shards only grow — and the cut
// file, replaced by rename, always decodes whole; no .tmp residue survives
// and the finished job leaves only its journal.
func TestPersistedFilesAreAtomic(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	s.Start()
	defer s.Stop()
	id, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	shards, cuts := 0, 0
	waitFor(t, "job completion", func() bool {
		j, _ := s.Job(id)
		done := j.view().State == StateDone
		data, err := os.ReadFile(filepath.Join(dir, id+".json"))
		if err != nil {
			t.Fatalf("journal missing mid-run: %v", err)
		}
		jr, err := replayJournal(id, data)
		if err != nil {
			t.Fatalf("journal mid-run does not replay: %v", err)
		}
		if jr.shards < shards {
			t.Fatalf("journal went from %d to %d shards", shards, jr.shards)
		}
		shards = jr.shards
		if done && jr.state != StateDone {
			t.Fatal("job done before its end record")
		}
		if cut, err := os.ReadFile(filepath.Join(dir, id+".cut")); err == nil {
			var rec record
			if !decodeRecord(bytes.TrimSuffix(cut, []byte{'\n'}), &rec) || rec.Kind != recCut {
				t.Fatal("torn cut file mid-run")
			}
			cuts++
		}
		return done
	})
	if shards != 3 {
		t.Fatalf("finished journal holds %d shards, want 3", shards)
	}
	if cuts == 0 {
		t.Log("no cut file observed mid-run")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != id+".json" {
		for _, e := range entries {
			t.Errorf("state dir holds %s", e.Name())
		}
		t.Fatal("finished job left more than its journal")
	}
}

// followStream reads a job's NDJSON stream from the start until the server
// ends it and returns the decoded lines.
func followStream(ts *httptest.Server, id string) ([]streamEvent, error) {
	lines, err := streamLines(ts, id)
	if err != nil {
		return nil, err
	}
	events := make([]streamEvent, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &events[i]); err != nil {
			return nil, fmt.Errorf("bad stream line %q: %v", line, err)
		}
	}
	return events, nil
}

// streamLines reads a job's raw NDJSON stream lines until the server ends
// the stream.
func streamLines(ts *httptest.Server, id string) ([][]byte, error) {
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	return lines, sc.Err()
}

// TestStreamsEndWithTerminalLine: every job's stream, followed from submit,
// ends with a line carrying the job's terminal state — done, failed,
// cancelled while running, and cancelled while queued — and the moment a
// status read shows that state, the journal on disk already ends with its
// end record.
func TestStreamsEndWithTerminalLine(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	long := testSpec()
	long.Devices = 20
	long.DurationMS = 600_000
	specs := []JobSpec{
		testSpec(),
		{Type: TypeTorture, Programs: 4, ShardPrograms: 2},
		failingSpec(),
		long,
		testSpec(),
	}
	want := []string{StateDone, StateDone, StateFailed, StateCancelled, StateCancelled}
	const failing = 2

	type result struct {
		events []streamEvent
		err    error
	}
	ids := make([]string, len(specs))
	streams := make([]chan result, len(specs))
	for i, spec := range specs {
		if i == failing {
			ids[i] = enqueueFailing(t, s)
		} else {
			ids[i] = postJob(t, ts, spec)
		}
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
		if jr := readJournal(t, dir, id); state != want[i] || jr.state != state {
			t.Fatalf("%s: status %s, journal end record %q, want %s in both", id, state, jr.state, want[i])
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

// finishedJournal runs testSpec to done in dir and returns the job's ID and
// journal bytes.
func finishedJournal(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	s := newTestServer(t, dir)
	s.Start()
	defer s.Stop()
	id, err := s.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job completion", func() bool {
		j, _ := s.Job(id)
		return j.view().State == StateDone
	})
	data, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return id, data
}

// recordStarts returns the offset of every record line in a journal.
func recordStarts(data []byte) []int {
	starts := []int{0}
	for i, b := range data[:len(data)-1] {
		if b == '\n' {
			starts = append(starts, i+1)
		}
	}
	return starts
}

// TestLoadStateQuarantinesCorruptFile: a torn tail record is dropped and its
// job resumes to the byte-identical report; a corrupt record in the middle
// of a journal quarantines the file as *.corrupt, counted, while a good
// queued job next to it resumes and IDs stay monotonic. A state file from
// before journals (one JSON object) is quarantined the same way.
func TestLoadStateQuarantinesCorruptFile(t *testing.T) {
	t.Run("torn tail", func(t *testing.T) {
		dir := t.TempDir()
		id, data := finishedJournal(t, dir)
		// Keep the first two shard records and half of the third: the end
		// record and the rest of shard 3 are lost.
		starts := recordStarts(data)
		if len(starts) != 5 {
			t.Fatalf("journal has %d records, want header + 3 shards + end", len(starts))
		}
		torn := data[:starts[3]+(starts[4]-starts[3])/2]
		if err := os.WriteFile(filepath.Join(dir, id+".json"), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		before := mCorruptStateFiles.Value()
		r := newTestServer(t, dir)
		if err := r.LoadState(); err != nil {
			t.Fatal(err)
		}
		if got := mCorruptStateFiles.Value() - before; got != 0 {
			t.Fatalf("torn tail counted %d corrupt files", got)
		}
		j, ok := r.Job(id)
		if !ok || j.view().State != StateQueued || j.jr.shards != 2 {
			t.Fatal("torn-tail job did not come back queued with 2 shards")
		}
		r.Start()
		defer r.Stop()
		ts := httptest.NewServer(r.Handler())
		defer ts.Close()
		waitFor(t, "resumed job completion", func() bool { return j.view().State == StateDone })
		if got := getReport(t, ts, id); !bytes.Equal(got, cliBytes(t, oneShot(t, testSpec()))) {
			t.Fatal("torn-tail job's report differs from amuletfleet -json")
		}
		// The next append overwrote the torn bytes.
		if jr := readJournal(t, dir, id); jr.shards != 3 || jr.state != StateDone {
			t.Fatalf("rewritten journal: %d shards, end %q", jr.shards, jr.state)
		}
	})
	t.Run("corrupt middle", func(t *testing.T) {
		dir := t.TempDir()
		_, data := finishedJournal(t, dir)
		starts := recordStarts(data)
		data[starts[1]+crcLen+4] ^= 0x20 // inside the first shard record's payload
		bad := filepath.Join(dir, "job-1.json")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, dir)
		s.nextID = 2
		if _, err := s.Submit(testSpec()); err != nil {
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
		if _, ok := r.Job("job-1"); ok {
			t.Fatal("corrupt job registered")
		}
		j, ok := r.Job("job-2")
		if !ok || j.view().State != StateQueued {
			t.Fatal("good queued job did not resume")
		}
		// IDs stay monotonic past the quarantined file, across restarts too.
		if id, err := r.Submit(testSpec()); err != nil || id != "job-3" {
			t.Fatalf("next submit got %q (%v), want job-3", id, err)
		}
		r2 := newTestServer(t, dir)
		if err := r2.LoadState(); err != nil {
			t.Fatal(err)
		}
		if id, err := r2.Submit(testSpec()); err != nil || id != "job-4" {
			t.Fatalf("submit after a second restart got %q (%v), want job-4", id, err)
		}
	})
	t.Run("pre-journal file", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "job-1.json")
		if err := os.WriteFile(path, []byte(`{"id":"job-1","spec":{},"state":"done"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		before := mCorruptStateFiles.Value()
		s := newTestServer(t, dir)
		if err := s.LoadState(); err != nil {
			t.Fatal(err)
		}
		if got := mCorruptStateFiles.Value() - before; got != 1 {
			t.Fatalf("corrupt-file counter moved by %d, want 1", got)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Fatalf("pre-journal file not quarantined: %v", err)
		}
		if _, ok := s.Job("job-1"); ok {
			t.Fatal("pre-journal job registered")
		}
	})
}

// TestPersistFailures: a state dir that cannot take the journal (a path
// under a regular file; root ignores read-only modes) and a rename that
// fails (the target is a non-empty directory) both fail the header write,
// count it on /metrics, leave no .tmp behind, and refuse the submit without
// registering the job. A failed append is counted too, and its record goes
// out ahead of the next one.
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
		before := mPersistFailures.Value()
		if _, err := s.Submit(testSpec()); !errors.Is(err, errUnpersisted) {
			t.Errorf("%s: submit returned %v, want a journal error", name, err)
		}
		if got := mPersistFailures.Value() - before; got != 1 {
			t.Errorf("%s: persist-failure counter moved by %d, want 1", name, got)
		}
		if _, err := os.Stat(s.journalPath("job-1") + ".tmp"); err == nil {
			t.Errorf("%s: .tmp left behind", name)
		}
		if len(s.Jobs()) != 0 {
			t.Errorf("%s: refused submit registered a job", name)
		}
	}

	stateDir := t.TempDir()
	s := newTestServer(t, stateDir)
	j := newJob("job-1", &journal{spec: testSpec()})
	if err := s.createJournal(j); err != nil {
		t.Fatal(err)
	}
	first := s.frame(&record{Kind: recEnd, State: StateFailed, Error: "first"})
	s.files = &faultFS{at: 1, mode: faultENOSPC, span: 1}
	before := mPersistFailures.Value()
	if err := s.appendJournal(j, first); err == nil {
		t.Fatal("append on a full disk reported success")
	}
	if got := mPersistFailures.Value() - before; got != 1 {
		t.Fatalf("persist-failure counter moved by %d, want 1", got)
	}
	// The failed append left a torn tail; it replays as the header alone.
	if jr := readJournal(t, stateDir, j.ID); jr.state != "" {
		t.Fatalf("failed append left end record %q", jr.state)
	}
	// The pending record goes out first: the journal reads header, the
	// retried record, then the new one.
	if err := s.appendJournal(j, s.frame(&record{Kind: recEnd, State: StateFailed, Error: "second"})); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.journalPath(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	var errs []string
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte{'\n'}), []byte{'\n'})[1:] {
		var rec record
		if !decodeRecord(line, &rec) {
			t.Fatalf("bad record %q after the retry", line)
		}
		errs = append(errs, rec.Error)
	}
	if fmt.Sprint(errs) != "[first second]" {
		t.Fatalf("records after the retry: %q, want first then second", errs)
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

// TestTerminalLineBytes: the terminal stream line, spliced from the compact
// final merge, is exactly what json.Marshal makes of its streamEvent — for a
// finished fleet job, a finished torture job, a failed job with an error
// and no report, and a job whose name Marshal HTML-escapes — and /report
// still serves the CLI's bytes.
func TestTerminalLineBytes(t *testing.T) {
	s := newTestServer(t, "")
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	named := testSpec()
	named.Name = "<fleet & co>"
	specs := []JobSpec{testSpec(), tortureSpec(), failingSpec(), named}
	wantState := []string{StateDone, StateDone, StateFailed, StateDone}
	const failing = 2

	for i, spec := range specs {
		var id string
		if i == failing {
			id = enqueueFailing(t, s)
		} else {
			id = postJob(t, ts, spec)
		}
		if state := waitTerminal(t, s, id); state != wantState[i] {
			t.Fatalf("%s: state %s, want %s", id, state, wantState[i])
		}
		v := func() JobView { j, _ := s.Job(id); return j.view() }()
		ev := streamEvent{V: streamVersion, Job: id, State: v.State, Done: v.Done, Total: v.Total, Error: v.Error}
		var report []byte
		switch {
		case v.State != StateDone:
		case spec.Type == TypeTorture:
			ev.Torture = compact(t, tortureBytes(t, spec))
			report = tortureBytes(t, spec)
		default:
			rep := oneShot(t, spec)
			ev.Report = compact(t, cliBytes(t, rep))
			report = cliBytes(t, rep)
		}
		if v.State == StateFailed && v.Error == "" {
			t.Fatalf("%s: failed job carries no error", id)
		}
		want, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := streamLines(ts, id)
		if err != nil {
			t.Fatal(err)
		}
		if got := lines[len(lines)-1]; !bytes.Equal(got, want) {
			t.Fatalf("%s: terminal line\n%s\nwant\n%s", id, got, want)
		}
		if report != nil {
			if got := getReport(t, ts, id); !bytes.Equal(got, report) {
				t.Fatalf("%s: /report differs from the CLI's bytes", id)
			}
		}
	}
}

// compact undoes the CLIs' indentation, leaving what json.Marshal gives.
func compact(t *testing.T, indented []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, indented); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
