package fleetd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"amuletiso/internal/obs"
)

// gateFS is the real file system with one write held until the test
// releases it — the append of shard record holdShard, or with holdCut the
// first cut write — and every cut write counted, checked against the shard
// records already in the journal and its in-flight snapshots collected.
type gateFS struct {
	holdShard int
	holdCut   bool
	entered   chan struct{} // closed when the held write begins
	release   chan struct{} // closed by the test to let it land

	mu     sync.Mutex
	held   bool
	landed int             // shard records in the journal
	cuts   int             // cut writes begun
	badCut string          // the first cut written for a shard other than landed+1
	parked map[string]bool // the in-flight snapshots cuts carried, encoded
}

func newGateFS(holdShard int, holdCut bool) *gateFS {
	return &gateFS{holdShard: holdShard, holdCut: holdCut,
		entered: make(chan struct{}), release: make(chan struct{}),
		parked: make(map[string]bool)}
}

// hold blocks the calling write until the test releases it, the first time
// hit is true.
func (g *gateFS) hold(hit bool) {
	g.mu.Lock()
	first := hit && !g.held
	g.held = g.held || hit
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
	}
}

// records decodes the framed records of one write.
func records(data []byte) []record {
	var out []record
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte{'\n'}), []byte{'\n'}) {
		var rec record
		if decodeRecord(line, &rec) {
			out = append(out, rec)
		}
	}
	return out
}

func (g *gateFS) replace(path string, data []byte, durable bool) error {
	if strings.HasSuffix(path, ".cut") {
		g.mu.Lock()
		g.cuts++
		for _, rec := range records(data) {
			if rec.Shard != g.landed+1 && g.badCut == "" {
				g.badCut = fmt.Sprintf("cut for shard %d written with %d shards journaled", rec.Shard, g.landed)
			}
			for _, dc := range rec.Cut.InFlight {
				b, _ := json.Marshal(dc)
				g.parked[string(b)] = true
			}
		}
		g.mu.Unlock()
		g.hold(g.holdCut)
	}
	return osFS{}.replace(path, data, durable)
}

func (g *gateFS) appendAt(path string, off int64, data []byte) error {
	shard := 0
	for _, rec := range records(data) {
		if rec.Kind == recShard {
			shard = rec.Shard
		}
	}
	g.hold(shard > 0 && shard == g.holdShard)
	err := osFS{}.appendAt(path, off, data)
	if err == nil && shard > 0 {
		g.mu.Lock()
		g.landed = shard
		g.mu.Unlock()
	}
	return err
}

func (g *gateFS) outOfOrderCut() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.badCut
}

func (g *gateFS) cutWrites() (writes, snapshots int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cuts, len(g.parked)
}

// stopHeld stops s while g holds a write: Stop cancels the running job, the
// held write is released once the cancel is visible, and stopHeld returns
// when the scheduler has exited.
func stopHeld(t *testing.T, s *Server, g *gateFS) {
	t.Helper()
	stopped := make(chan struct{})
	go func() {
		s.Stop()
		close(stopped)
	}()
	waitFor(t, "the stop to cancel the scheduler", func() bool { return s.ctx.Err() != nil })
	close(g.release)
	<-stopped
}

// TestShardPipeline pins the shard pipeline's ordering. While shard 1's
// journal append is held, shard 2 runs to completion, yet no progress line
// appears and no cut of shard 2 is written; released, the job serves the
// one-shot CLI bytes. A fleet job stopped with both shards running and a
// torture job stopped with shard 1 not yet durable and shard 2 in flight
// both resume to the one-shot CLI bytes. Only the lowest shard in flight is
// asked for snapshots.
func TestShardPipeline(t *testing.T) {
	fleetSpec := testSpec()
	fleetSpec.Devices = 8
	fleetSpec.DurationMS = 600_000
	want := cliBytes(t, oneShot(t, fleetSpec))
	completed := obs.Default.Lookup(obs.MetricDevicesCompleted)

	t.Run("ordering", func(t *testing.T) {
		dir := t.TempDir()
		g := newGateFS(1, false)
		s := newTestServer(t, dir)
		s.files = g
		s.Start()
		defer s.Stop()
		base := completed.Value()
		id, err := s.Submit(fleetSpec)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := s.Job(id)
		<-g.entered
		// Shard 1's two devices are done; shard 2's two finish while the
		// append is held.
		waitFor(t, "shard 2 to run while shard 1's append is held", func() bool {
			return completed.Value() >= base+4
		})
		j.mu.Lock()
		done, lines := j.done, len(j.lines)
		j.mu.Unlock()
		if done != 0 || lines != 0 {
			t.Fatalf("progress published before shard 1 was durable: done %d, %d lines", done, lines)
		}
		close(g.release)
		if state := waitTerminal(t, s, id); state != StateDone {
			t.Fatalf("job ended %s", state)
		}
		if bad := g.outOfOrderCut(); bad != "" {
			t.Fatal(bad)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if got := getReport(t, ts, id); !bytes.Equal(got, want) {
			t.Fatal("pipelined job's report differs from the one-shot CLI")
		}
	})

	t.Run("fleet stop", func(t *testing.T) {
		dir := t.TempDir()
		g := newGateFS(0, true)
		s := newTestServer(t, dir)
		tick := make(chan time.Time)
		s.files, s.tick = g, tick
		s.Start()
		id, err := s.Submit(fleetSpec)
		if err != nil {
			t.Fatal(err)
		}
		// The first cut to reach the disk is shard 1's. Holding it blocks
		// the scheduler, the only cut writer, while both shards run on.
		for held := false; !held; {
			select {
			case tick <- time.Time{}:
			case <-g.entered:
				held = true
			}
		}
		stopHeld(t, s, g)
		if jr := readJournal(t, dir, id); jr.shards() != 0 || jr.state != "" {
			t.Fatalf("stopped job journaled %d shards, end %q; want 0 and none", jr.shards(), jr.state)
		}
		if readCut(filepath.Join(dir, id+".cut"), 0) == nil {
			t.Fatal("stopped job left no cut of shard 1")
		}
		if bad := g.outOfOrderCut(); bad != "" {
			t.Fatal(bad)
		}
		if !checkResumed(t, dir, id, want) {
			t.Fatal("stopped job not restored")
		}
	})

	// Two long shards run side by side and the test ticks the job's flush
	// clock, each tick once a device has answered the one before. Only shard
	// 1 is cut, so only its devices park snapshots for the cuts, and every
	// such park reaches the next cut written, except the last of each
	// device, which its final park at the stop replaces. Shard 2's devices
	// park only when the stop cancels them.
	t.Run("lowest shard snapshots", func(t *testing.T) {
		dir := t.TempDir()
		g := newGateFS(0, false)
		s := newTestServer(t, dir)
		tick := make(chan time.Time)
		s.files, s.tick = g, tick
		s.Start()
		spec := testSpec()
		spec.Devices = 2 * spec.ShardDevices
		spec.DurationMS = 30_000_000
		snapshots := obs.Default.Lookup(obs.MetricSnapshots)
		base := snapshots.Value()
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		// A device owes snapshots only to the asks made after it started, so
		// the first ticks may go unanswered: tick until one is answered.
		waitFor(t, "a snapshot of shard 1", func() bool {
			tick <- time.Time{}
			return snapshots.Value() > base
		})
		for writes, _ := g.cutWrites(); writes < 20; writes, _ = g.cutWrites() {
			n := snapshots.Value()
			tick <- time.Time{}
			waitFor(t, "a snapshot the tick asked for", func() bool { return snapshots.Value() > n })
		}
		s.Stop()
		if jr := readJournal(t, dir, id); jr.shards() != 0 || jr.state != "" {
			t.Fatalf("stopped job journaled %d shards, end %q; want 0 and none", jr.shards(), jr.state)
		}
		if bad := g.outOfOrderCut(); bad != "" {
			t.Fatal(bad)
		}
		writes, written := g.cutWrites()
		n := snapshots.Value() - base
		if limit := uint64(written + 2*spec.ShardDevices); n > limit {
			t.Fatalf("%d snapshots, %d of them in %d cuts of shard 1: want at most %d", n, written, writes, limit)
		}
		if written <= spec.ShardDevices {
			t.Fatalf("%d cuts of shard 1 carried %d snapshots: its devices answered none", writes, written)
		}
		t.Logf("%d snapshots, %d of them in %d cuts of shard 1", n, written, writes)
	})

	t.Run("torture stop", func(t *testing.T) {
		dir := t.TempDir()
		g := newGateFS(1, false)
		s := newTestServer(t, dir)
		s.files = g
		s.Start()
		spec := tortureSpec()
		spec.Programs = 8
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-g.entered
		stopHeld(t, s, g)
		// Shard 2 is cancelled, or journaled if its run had already
		// finished: a stop drops no finished shard that is next in order.
		if jr := readJournal(t, dir, id); jr.shards() < 1 || jr.shards() > 2 || jr.state != "" {
			t.Fatalf("stopped job journaled %d shards, end %q; want 1 or 2 and none", jr.shards(), jr.state)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".cut")); err == nil {
			t.Fatal("torture job wrote a cut")
		}
		if !checkResumed(t, dir, id, tortureBytes(t, spec)) {
			t.Fatal("stopped job not restored")
		}
	})
}
