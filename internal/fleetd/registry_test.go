package fleetd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// endRecords counts the end records in job id's journal under dir and
// requires the journal to replay.
func endRecords(t *testing.T, dir, id string) (*journal, int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	ends := 0
	for _, rec := range records(data) {
		if rec.Kind == recEnd {
			ends++
		}
	}
	jr, err := replayJournal(id, data)
	if err != nil {
		t.Fatalf("%s: journal with %d end records does not replay: %v", id, ends, err)
	}
	return jr, ends
}

// TestClaimThenCancel plays the scheduler by hand: it claims a job, a cancel
// lands before the job runs, then the run starts. The job ends cancelled
// with one end record, its journal replays, and a restart restores it
// cancelled instead of quarantining it.
func TestClaimThenCancel(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir) // never started: the test is the scheduler
	id, err := s.Submit(tortureSpec())
	if err != nil {
		t.Fatal(err)
	}
	j, ctx := s.claim()
	if j == nil || j.ID != id {
		t.Fatalf("claimed %v, want %s", j, id)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	s.runJob(ctx, j)
	if state := j.view().State; state != StateCancelled {
		t.Fatalf("claimed job cancelled before its run ended %s", state)
	}
	if jr, ends := endRecords(t, dir, id); ends != 1 || jr.state != StateCancelled {
		t.Fatalf("journal holds %d end records and ends %q, want one cancelled", ends, jr.state)
	}
	if again, _ := s.claim(); again != nil {
		t.Fatalf("claimed %s after the queue emptied", again.ID)
	}

	before := mCorruptStateFiles.Value()
	r := newTestServer(t, dir)
	if err := r.LoadState(); err != nil {
		t.Fatal(err)
	}
	if got := mCorruptStateFiles.Value() - before; got != 0 {
		t.Fatalf("restart quarantined %d journals", got)
	}
	if rj, ok := r.Job(id); !ok || rj.view().State != StateCancelled {
		t.Fatal("restart did not restore the job cancelled")
	}
}

// TestJobsWhileSubmitting lists the jobs over and over while maxQueued jobs
// are submitted; run it under -race. The last list holds every job in
// submission order.
func TestJobsWhileSubmitting(t *testing.T) {
	s := newTestServer(t, "")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = s.Jobs()
			}
		}
	}()
	for i := 0; i < maxQueued; i++ {
		if _, err := s.Submit(tortureSpec()); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	views := s.Jobs()
	if len(views) != maxQueued {
		t.Fatalf("listed %d jobs, want %d", len(views), maxQueued)
	}
	for i, v := range views {
		if want := fmt.Sprintf("job-%d", i+1); v.ID != want || v.State != StateQueued {
			t.Fatalf("list entry %d: %s %s, want %s queued", i, v.ID, v.State, want)
		}
	}
}

// waitState blocks until j's state satisfies until, woken by the job's own
// state changes rather than by polling.
func waitState(j *Job, until func(state string) bool) {
	for {
		j.mu.Lock()
		state, changed := j.state, j.changed
		j.mu.Unlock()
		if until(state) {
			return
		}
		<-changed
	}
}

// TestCancelStress submits 16 one-program torture jobs to a running
// scheduler while another goroutine lists the jobs, and cancels each job
// from its own goroutine: the first once it runs, every other one the moment
// the job before it settles, when the scheduler is claiming it. Some cancels
// find their job queued, some running, some too late. Every journal replays
// with at most one end record, every job ends in the state its record names,
// and the finished-jobs counter rises by exactly 16.
func TestCancelStress(t *testing.T) {
	const n = 16
	dir := t.TempDir()
	s := newTestServer(t, dir)
	s.Start()
	defer s.Stop()
	spec := tortureSpec()
	spec.Programs = 1
	before := mJobsFinished.Total()

	listing := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-listing:
				return
			default:
				_ = s.Jobs()
			}
		}
	}()
	var cancels sync.WaitGroup
	jobs := make([]*Job, n)
	for i := range jobs {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i], _ = s.Job(id)
		cancels.Add(1)
		go func() {
			defer cancels.Done()
			if i == 0 {
				waitState(jobs[0], func(state string) bool { return state != StateQueued })
			} else {
				waitState(jobs[i-1], isTerminal)
			}
			_ = s.Cancel(id) // a job that already finished refuses
		}()
	}
	cancels.Wait()
	close(listing)
	wg.Wait()

	states := map[string]int{}
	for _, j := range jobs {
		waitState(j, isTerminal)
		state := j.view().State
		states[state]++
		jr, ends := endRecords(t, dir, j.ID)
		if ends > 1 || jr.state != state {
			t.Fatalf("%s ended %s; its journal has %d end records and ends %q", j.ID, state, ends, jr.state)
		}
	}
	if got := mJobsFinished.Total() - before; got != n {
		t.Fatalf("finished-jobs counter rose by %d for %d jobs", got, n)
	}
	t.Logf("end states: %v", states)
}

// goldenSpec is the sharded fleet job whose stream and report are pinned in
// testdata.
const goldenSpec = `{"name":"golden-stream","apps":["pedometer","hr"],"durationMS":4000,"devices":6,"seed":42,"buttonEveryMS":1700,"faultEveryMS":2300,"faultApp":1,"maxFaults":3,"backoffMS":400,"shardDevices":2}`

// TestStreamGolden pins every line of a sharded fleet job's stream, the
// terminal line with its report included, and its /report. Regenerate both
// files from the repository root with
//
//	go build -o amuletfleetd ./cmd/amuletfleetd
//	./amuletfleetd -addr 127.0.0.1:8479 & sleep 1
//	curl -s -X POST -d '<goldenSpec>' http://127.0.0.1:8479/jobs
//	curl -sN http://127.0.0.1:8479/jobs/job-1/stream > internal/fleetd/testdata/golden_stream.ndjson
//	curl -s http://127.0.0.1:8479/jobs/job-1/report > internal/fleetd/testdata/golden_report.json
//	kill %1
//
// with goldenSpec pasted in. The report is also what `amuletfleet -name
// golden-stream -apps pedometer,hr -devices 6 -ms 4000 -seed 42
// -button-every 1700 -fault-every 2300 -fault-app 1 -backoff 400 -json`
// prints.
func TestStreamGolden(t *testing.T) {
	s := newTestServer(t, "")
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var spec JobSpec
	if err := json.Unmarshal([]byte(goldenSpec), &spec); err != nil {
		t.Fatal(err)
	}
	id := postJob(t, ts, spec)
	lines, err := streamLines(ts, id)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(bytes.Join(lines, []byte{'\n'}), '\n')
	for file, got := range map[string][]byte{
		"golden_stream.ndjson": stream,
		"golden_report.json":   getReport(t, ts, id),
	} {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden:\n%s", file, got)
		}
	}
}
