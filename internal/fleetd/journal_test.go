package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"amuletiso/internal/fleet"
	"amuletiso/internal/torture"
)

// readJournal replays a job's journal from dir.
func readJournal(t *testing.T, dir, id string) *journal {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	jr, err := replayJournal(id, data)
	if err != nil {
		t.Fatal(err)
	}
	return jr
}

// getReport fetches a job's /report body, failing on a non-200 reply.
func getReport(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s report: status %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// indented renders v the way the CLIs' -json flags do.
func indented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitTerminal(t *testing.T, s *Server, id string) string {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	var state string
	waitFor(t, id+" to finish", func() bool {
		state = j.view().State
		return isTerminal(state)
	})
	return state
}

// tortureSpec is a small sharded torture job.
func tortureSpec() JobSpec {
	return JobSpec{Type: TypeTorture, Kind: torture.KindDifferential, Programs: 4, Seed: 3, ShardPrograms: 2}
}

// failingSpec is a job that fails once it runs: torture.Run rejects a
// negative first program index. Submit rejects the spec up front (400 over
// HTTP), so tests that need a failed job — its terminal line, journal end
// record and restored stream — enqueue it past validation with
// enqueueFailing.
func failingSpec() JobSpec {
	spec := tortureSpec()
	spec.First = -1
	return spec
}

// enqueueFailing registers failingSpec on s without Submit's validation and
// returns the job's ID.
func enqueueFailing(t *testing.T, s *Server) string {
	t.Helper()
	spec := failingSpec()
	p, err := spec.plan()
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.enqueue(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// tortureBytes is the amulettorture -json rendering of a one-shot run of
// spec on newTestServer's two workers.
func tortureBytes(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	cfg, err := spec.tortureConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	rep, err := torture.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return indented(t, rep)
}

// TestRestoredJobsServeStreams: after a restart, a done, a failed, a
// cancelled and a torture job each serve exactly the stream they served
// live — running lines rebuilt from the journal, then the terminal line with
// its report — and done jobs serve the same report bytes.
func TestRestoredJobsServeStreams(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, dir)
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	long := testSpec()
	long.Devices = 20
	long.DurationMS = 600_000
	specs := []JobSpec{testSpec(), failingSpec(), tortureSpec(), long}
	want := []string{StateDone, StateFailed, StateDone, StateCancelled}
	const failing = 1
	var ids []string
	for i, spec := range specs {
		if i == failing {
			ids = append(ids, enqueueFailing(t, s1))
			continue
		}
		id, err := s1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	waitFor(t, "long job's first shard", func() bool {
		j, _ := s1.Job(ids[3])
		return j.view().Done >= 2
	})
	if err := s1.Cancel(ids[3]); err != nil {
		t.Fatal(err)
	}
	live := make([][][]byte, len(ids))
	for i, id := range ids {
		if got := waitTerminal(t, s1, id); got != want[i] {
			t.Fatalf("%s ended %s, want %s", id, got, want[i])
		}
		var err error
		if live[i], err = streamLines(ts1, id); err != nil {
			t.Fatal(err)
		}
	}
	liveReports := map[int][]byte{0: getReport(t, ts1, ids[0]), 2: getReport(t, ts1, ids[2])}
	ts1.Close()
	s1.Stop()

	s2 := newTestServer(t, dir)
	if err := s2.LoadState(); err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Stop()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for i, id := range ids {
		if got := waitTerminal(t, s2, id); got != want[i] {
			t.Fatalf("restored %s is %s, want %s", id, got, want[i])
		}
		lines, err := streamLines(ts2, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) < 2 && want[i] != StateFailed {
			t.Fatalf("restored %s streams %d lines", id, len(lines))
		}
		if len(lines) != len(live[i]) {
			t.Fatalf("restored %s streams %d lines, live stream had %d", id, len(lines), len(live[i]))
		}
		for k := range lines {
			if !bytes.Equal(lines[k], live[i][k]) {
				t.Fatalf("restored %s line %d:\n%s\nlive:\n%s", id, k, lines[k], live[i][k])
			}
		}
		var last streamEvent
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.State != want[i] {
			t.Fatalf("restored %s stream does not end with a %s line", id, want[i])
		}
		if report, ok := liveReports[i]; ok && !bytes.Equal(getReport(t, ts2, id), report) {
			t.Fatalf("restored %s report differs from the live one", id)
		}
	}
}

// TestRestoredJobCancelledWhileQueued: a fleet job stopped with shards
// journaled, restored and cancelled before the scheduler starts, ends with a
// terminal line carrying the merge of its journaled shards, and a second
// restart serves the same stream byte for byte.
func TestRestoredJobCancelledWhileQueued(t *testing.T) {
	dir := t.TempDir()
	g := newGateFS(1, false)
	s1 := newTestServer(t, dir)
	s1.files = g
	s1.Start()
	spec := testSpec()
	spec.Devices = 8 // four shards: shard 4 launches only after shard 1's append
	id, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The stop lands while shard 1's append is held, which then completes.
	<-g.entered
	stopHeld(t, s1, g)
	jr := readJournal(t, dir, id)
	if jr.shards() == 0 || jr.state != "" {
		t.Fatalf("stopped job journaled %d shards, end %q; want some and none", jr.shards(), jr.state)
	}
	wantReport, err := jr.encodeFinal()
	if err != nil {
		t.Fatal(err)
	}

	var streams [][][]byte
	for restart := 0; restart < 2; restart++ {
		s := newTestServer(t, dir)
		if err := s.LoadState(); err != nil {
			t.Fatal(err)
		}
		if restart == 0 {
			if err := s.Cancel(id); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(s.Handler())
		lines, err := streamLines(ts, id)
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		var last streamEvent
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.State != StateCancelled {
			t.Fatalf("restart %d: stream does not end with a cancelled line", restart+1)
		}
		if !bytes.Equal(last.Report, wantReport) {
			t.Fatalf("restart %d: terminal line carries report %s, want the merge of %d journaled shards", restart+1, last.Report, jr.shards())
		}
		streams = append(streams, lines)
	}
	if a, b := bytes.Join(streams[0], []byte{'\n'}), bytes.Join(streams[1], []byte{'\n'}); !bytes.Equal(a, b) {
		t.Fatalf("stream after the cancel:\n%s\nafter another restart:\n%s", a, b)
	}
}

// TestRetentionWindow: only the retainFinished most recently finished jobs
// keep their report in memory; older ones serve the same report and
// terminal line from their journal.
func TestRetentionWindow(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	spec := testSpec()
	spec.Devices = 2
	spec.ShardDevices = 1
	want := cliBytes(t, oneShot(t, spec))
	var ids []string
	for i := 0; i < retainFinished+2; i++ {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitTerminal(t, s, id)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		j, _ := s.Job(id)
		j.mu.Lock()
		cold, final := j.cold, j.final
		j.mu.Unlock()
		if wantCold := i < 2; cold != wantCold || (final == nil) != wantCold {
			t.Fatalf("%s: cold=%v holding %d report bytes, want cold=%v", id, cold, len(final), wantCold)
		}
		if got := getReport(t, ts, id); !bytes.Equal(got, want) {
			t.Fatalf("%s: report differs from amuletfleet -json", id)
		}
		events, err := followStream(ts, id)
		if err != nil {
			t.Fatal(err)
		}
		if last := events[len(events)-1]; last.State != StateDone || !bytes.Equal(last.Report, compact.Bytes()) {
			t.Fatalf("%s: terminal line does not carry the report", id)
		}
	}
}

// TestSubmitQueueBounded: with maxQueued jobs waiting, POST /jobs replies
// 429 with Retry-After, registers nothing and writes no journal; a cancel
// frees a slot.
func TestSubmitQueueBounded(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir) // never started: nothing leaves the queue
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < maxQueued; i++ {
		postJob(t, ts, testSpec())
	}
	body, _ := json.Marshal(testSpec())
	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit to a full queue: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n := len(s.Jobs()); n != maxQueued {
		t.Fatalf("refused submit left %d jobs, want %d", n, maxQueued)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != maxQueued {
		t.Fatalf("refused submit left %d files, want %d", len(entries), maxQueued)
	}
	if err := s.Cancel("job-1"); err != nil {
		t.Fatal(err)
	}
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after a cancel: status %d", resp.StatusCode)
	}
}

// Fault modes of faultFS.
const (
	faultCrash     = iota // the write lands whole, then the process dies
	faultCrashTorn        // half the write lands, then the process dies
	faultENOSPC           // half the write lands and it fails with ENOSPC
)

var errCrashed = errors.New("crashed")

// faultFS is the real file system with one injected fault at write number
// at (1-based, counting journal appends and whole-file replaces, or with
// only set just the writes to paths ending in it). A crash loses every later
// write, as if the process had died there; ENOSPC fails span writes from at
// on (0: every later write). Every cut write is checked against the shard
// records the journal holds. It also drives the daemon's flush clock (see
// clock).
type faultFS struct {
	at, mode, span int
	only           string

	mu      sync.Mutex
	writes  int
	dead    bool
	crashed chan struct{}
	landed  int    // shard records wholly appended
	badCut  string // the first cut written for a shard other than landed+1
	// cutDue is set by the header and every shard record, and cleared when a
	// cut write begins.
	cutDue bool
}

// markDue asks the clock for a cut. Callers hold f.mu.
func (f *faultFS) markDue() { f.cutDue = true }

// clock returns the flush ticks of a daemon writing through f and the
// wrapper of its fleet shards' contexts that sends them. After the job's
// header and after each shard record, until a cut write begins, every poll
// of a fleet shard's devices hands the daemon one tick and waits until the
// daemon takes it. Devices poll only once their run has attached the
// shard's cutter, and a device waiting on a tick keeps its shard from
// finishing, so a running lowest shard is asked for snapshots by its
// devices' first poll at the latest and cut, holding the snapshot that poll
// parked, at the next. However the goroutines are scheduled, a fleet job
// writes a cut of its first shard after its header, and one after a later
// shard record whenever the new lowest shard is still running.
func (f *faultFS) clock() (<-chan time.Time, func(context.Context) context.Context) {
	tick := make(chan time.Time)
	return tick, func(ctx context.Context) context.Context {
		return tickCtx{Context: ctx, f: f, tick: tick}
	}
}

// tickCtx is a fleet shard's context under faultFS.clock: its Err sends a
// tick while a cut is due.
type tickCtx struct {
	context.Context
	f    *faultFS
	tick chan<- time.Time
}

func (c tickCtx) Err() error {
	c.f.mu.Lock()
	due := c.f.cutDue
	c.f.mu.Unlock()
	if due {
		select {
		case c.tick <- time.Time{}:
		case <-c.Done():
		}
	}
	return c.Context.Err()
}

func (f *faultFS) fault(path string) (bool, error) {
	if f.dead {
		return false, errCrashed
	}
	if !strings.HasSuffix(path, f.only) {
		return false, nil
	}
	f.writes++
	return f.writes == f.at || (f.mode == faultENOSPC && f.writes > f.at && (f.span == 0 || f.writes < f.at+f.span)), nil
}

func (f *faultFS) die() error {
	f.dead = true
	if f.crashed != nil {
		close(f.crashed)
	}
	return errCrashed
}

func enospc(path string) error {
	return &os.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
}

func (f *faultFS) replace(path string, data []byte, durable bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if strings.HasSuffix(path, ".cut") {
		f.cutDue = false
		for _, rec := range records(data) {
			if rec.Shard != f.landed+1 && f.badCut == "" {
				f.badCut = fmt.Sprintf("cut for shard %d written with %d shards journaled", rec.Shard, f.landed)
			}
		}
	} else {
		f.markDue() // the job's header
	}
	hit, err := f.fault(path)
	switch {
	case err != nil:
		return err
	case !hit:
		return osFS{}.replace(path, data, durable)
	case f.mode == faultCrash:
		_ = osFS{}.replace(path, data, durable)
		return f.die()
	case f.mode == faultCrashTorn:
		_ = os.WriteFile(path+".tmp", data[:len(data)/2], 0o644)
		return f.die()
	}
	return enospc(path + ".tmp") // osFS removes the partial temp file
}

func (f *faultFS) appendAt(path string, off int64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if slices.ContainsFunc(records(data), func(rec record) bool { return rec.Kind == recShard }) {
		f.markDue()
	}
	hit, err := f.fault(path)
	switch {
	case err != nil:
		return err
	case !hit:
		if err := (osFS{}).appendAt(path, off, data); err != nil {
			return err
		}
		for _, rec := range records(data) {
			if rec.Kind == recShard {
				f.landed = rec.Shard
			}
		}
		return nil
	case f.mode == faultCrash:
		_ = osFS{}.appendAt(path, off, data)
		return f.die()
	case f.mode == faultCrashTorn:
		_ = osFS{}.appendAt(path, off, data[:len(data)/2])
		return f.die()
	}
	_ = osFS{}.appendAt(path, off, data[:len(data)/2])
	return enospc(path)
}

// faultCase is one job family for the crash and ENOSPC sweeps.
type faultCase struct {
	name   string
	spec   JobSpec
	want   []byte        // the one-shot CLI report
	runner *fleet.Runner // every sweep run's, its firmware built
}

func faultCases(t *testing.T) []faultCase {
	// The runner's firmware is built up front, so every sweep run's shards
	// start at once, and the long shards poll many times between the fault
	// FS clock's ask and cut.
	fleetSpec := testSpec()
	fleetSpec.DurationMS = 60_000
	sc, err := fleetSpec.scenario()
	if err != nil {
		t.Fatal(err)
	}
	runner := &fleet.Runner{Workers: 2, Cache: fleet.NewBuildCache()}
	rep, err := runner.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return []faultCase{
		{"fleet", fleetSpec, cliBytes(t, rep), runner},
		{"torture", tortureSpec(), tortureBytes(t, tortureSpec()), runner},
	}
}

// newFaultServer is a daemon over dir on c's runner, writing through ffs and
// on its clock.
func newFaultServer(t *testing.T, dir string, c faultCase, ffs *faultFS) *Server {
	s := newTestServer(t, dir)
	s.Runner, s.files = c.runner, ffs
	s.tick, s.shardCtx = ffs.clock()
	return s
}

// checkResumed restarts a daemon over dir with the real file system and
// requires job id, if registered, to finish with the CLI's report bytes.
// (The contract also allows a job that cannot resume to be reported failed;
// none of the injected faults leaves such a job.) It returns whether the
// job was registered.
func checkResumed(t *testing.T, dir, id string, want []byte) bool {
	t.Helper()
	s := newTestServer(t, dir)
	if err := s.LoadState(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Job(id); !ok {
		return false
	}
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if state := waitTerminal(t, s, id); state != StateDone {
		t.Fatalf("resumed %s ended %s", id, state)
	}
	if got := getReport(t, ts, id); !bytes.Equal(got, want) {
		t.Fatalf("resumed %s: report differs from the one-shot CLI", id)
	}
	return true
}

// TestCrashAtEveryWrite kills the daemon at every journal write of a fleet
// and a torture job, and at every cut write of the fleet job — once after the
// write landed whole, once with it torn — and restarts it over the state
// left behind. Every resumed job finishes with the one-shot CLI's report
// bytes; an acknowledged job is never lost.
func TestCrashAtEveryWrite(t *testing.T) {
	for _, c := range faultCases(t) {
		for _, mode := range []int{faultCrash, faultCrashTorn} {
			// Journal writes come in a fixed order. Cut writes are swept
			// apart: how many fall between two shard records depends on how
			// the job's goroutines are scheduled.
			for _, only := range []string{".json", ".cut"} {
				at := 1
				for ; ; at++ {
					dir := t.TempDir()
					ffs := &faultFS{at: at, mode: mode, only: only, crashed: make(chan struct{})}
					s := newFaultServer(t, dir, c, ffs)
					s.Start()
					id, err := s.Submit(c.spec)
					acked := err == nil
					if acked {
						j, _ := s.Job(id)
						waitFor(t, "crash or completion", func() bool {
							select {
							case <-ffs.crashed:
								return true
							default:
								return isTerminal(j.view().State)
							}
						})
					}
					s.Stop()
					ffs.mu.Lock()
					finished, badCut := !ffs.dead, ffs.badCut
					ffs.mu.Unlock()
					if badCut != "" {
						t.Fatalf("%s mode %d crash at %s write %d: %s", c.name, mode, only, at, badCut)
					}
					if registered := checkResumed(t, dir, "job-1", c.want); acked && !registered {
						t.Fatalf("%s mode %d crash at %s write %d: acknowledged job lost", c.name, mode, only, at)
					}
					if finished {
						break
					}
				}
				switch {
				case only == ".json" && at < 4:
					t.Fatalf("%s: only %d journal writes", c.name, at-1)
				case only == ".cut" && at == 1 && c.spec.Type != TypeTorture:
					t.Fatalf("%s mode %d: no crash landed on a cut write", c.name, mode)
				}
				t.Logf("%s mode %d: %d crash points on %s writes", c.name, mode, at-1, only)
			}
		}
	}
}

// TestENOSPCAtEveryWrite fails every journal and cut write in turn with
// ENOSPC after half its bytes, once for a single write and once with the
// disk full from then on. The live job still serves the CLI's bytes, a
// refused header refuses the submit, and a daemon restarted over the state
// finishes the job with the CLI's bytes.
func TestENOSPCAtEveryWrite(t *testing.T) {
	for _, c := range faultCases(t) {
		for _, span := range []int{1, 0} {
			for at := 1; ; at++ {
				dir := t.TempDir()
				ffs := &faultFS{at: at, mode: faultENOSPC, span: span}
				s := newFaultServer(t, dir, c, ffs)
				s.Start()
				ts := httptest.NewServer(s.Handler())
				id, err := s.Submit(c.spec)
				if err != nil {
					if !errors.Is(err, errUnpersisted) || len(s.Jobs()) != 0 {
						t.Fatalf("%s: refused header: %v, %d jobs", c.name, err, len(s.Jobs()))
					}
					if _, err := os.Stat(filepath.Join(dir, "job-1.json")); err == nil {
						t.Fatalf("%s: refused submit left a journal", c.name)
					}
				} else {
					if state := waitTerminal(t, s, id); state != StateDone {
						t.Fatalf("%s ENOSPC at %d: job ended %s", c.name, at, state)
					}
					if got := getReport(t, ts, id); !bytes.Equal(got, c.want) {
						t.Fatalf("%s ENOSPC at %d: live report differs", c.name, at)
					}
				}
				ts.Close()
				s.Stop()
				ffs.mu.Lock()
				writes, badCut := ffs.writes, ffs.badCut
				ffs.mu.Unlock()
				if badCut != "" {
					t.Fatalf("%s ENOSPC at %d: %s", c.name, at, badCut)
				}
				if err == nil && !checkResumed(t, dir, id, c.want) {
					t.Fatalf("%s ENOSPC at %d: acknowledged job lost", c.name, at)
				}
				if writes < at {
					break
				}
			}
		}
	}
}

// prefixMerges decodes a journal's records up to the first bad one and
// returns the encoded merge after each prefix of its shard records, the
// empty prefix (null) first.
func prefixMerges(data []byte) [][]byte {
	out := [][]byte{[]byte("null")}
	jr := &journal{}
	for n, line := range bytes.Split(data, []byte{'\n'}) {
		var rec record
		if !decodeRecord(line, &rec) {
			break
		}
		if n == 0 && jr.apply("job-1", 0, &rec) != nil {
			break
		}
		if rec.Kind != recShard || rec.Shard != jr.shards()+1 || jr.take(&rec) != nil {
			continue
		}
		m, _ := jr.encodeFinal()
		out = append(out, m)
	}
	return out
}

// FuzzJournalReplay feeds LoadState mutated and truncated journals, seeded
// from real ones (testdata/journals: a fleet and a torture job run to done by
// the daemon). LoadState never panics, and either quarantines the file or
// registers a job whose merge equals the merge of a prefix of the journal's
// valid records.
func FuzzJournalReplay(f *testing.F) {
	for _, name := range []string{"fleet", "torture"} {
		data, err := os.ReadFile(filepath.Join("testdata", "journals", name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		if jr, err := replayJournal("job-1", data); err != nil || jr.state != StateDone {
			f.Fatalf("seed journal %s does not replay to a done job: %v", name, err)
		}
		f.Add(data)
		f.Add(data[:len(data)*2/3])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "job-1.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewServer(dir)
		if err := s.LoadState(); err != nil {
			t.Fatal(err)
		}
		j, ok := s.Job("job-1")
		if !ok {
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatal("journal neither loaded nor quarantined")
			}
			return
		}
		var got []byte
		if j.cold {
			final, err := s.finalOf(j)
			if err != nil {
				t.Fatalf("loaded terminal job does not replay: %v", err)
			}
			got = final
		} else {
			got, _ = j.jr.encodeFinal()
		}
		if got == nil {
			got = []byte("null")
		}
		for _, m := range prefixMerges(data) {
			if bytes.Equal(m, got) {
				return
			}
		}
		t.Fatal("loaded job's merge is not the merge of a prefix of the journal's records")
	})
}
