package fleetd

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"amuletiso/internal/fleet"
	"amuletiso/internal/torture"
)

// Persistence: every job owns an append-only journal, <state>/job-<n>.json.
// Each record is one line, "<CRC-32C of the payload, 8 hex digits> <JSON
// payload>\n":
//
//	{"kind":"header","v":1,"id":"job-3","spec":{...}}
//	{"kind":"shard","shard":1,"report":{...}}     (torture jobs: "torture")
//	...
//	{"kind":"end","state":"done"}                 ("error" when failed)
//
// The header is created atomically (temp file, fsync, rename, directory
// fsync) before POST /jobs replies. A shard record holds that shard's own
// partial report, not the merge so far, so a job writes O(shards) bytes;
// replay folds the records through Report.Merge, which is order-free. Shard
// and end records are fsynced before the job's state and stream line move on.
//
// The interrupted shard's latest consistent cut lives beside the journal in
// <state>/job-<n>.cut, one record of kind "cut" replaced atomically (temp
// file + rename) at every flush. Its "shard" is the 1-based number of the
// shard it was taken in; a cut at or below the journal's completed-shard
// count is stale and ignored.
//
// A restarted daemon replays every journal. A torn tail record (a crash
// mid-append) is dropped and the job kept; any other bad record quarantines
// the file as <name>.corrupt.

// journalVersion is the header's "v"; bump it on an incompatible change.
const journalVersion = 1

// Record kinds.
const (
	recHeader = "header"
	recShard  = "shard"
	recEnd    = "end"
	recCut    = "cut"
)

// record is one journal line's payload; each kind uses a subset of fields.
type record struct {
	Kind string `json:"kind"`
	// Header.
	V    int      `json:"v,omitempty"`
	ID   string   `json:"id,omitempty"`
	Spec *JobSpec `json:"spec,omitempty"`
	// Shard: the 1-based shard number, equal to the completed-shard count
	// once this record is merged. Cut: the shard the cut was taken in.
	Shard   int                       `json:"shard,omitempty"`
	Report  *fleet.Report             `json:"report,omitempty"`
	Torture *torture.Report           `json:"torture,omitempty"`
	Cut     *fleet.CampaignCheckpoint `json:"cut,omitempty"`
	// End.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcLen is the width of a record's checksum prefix plus its separator.
const crcLen = 9

// encodeRecord frames rec as one journal line.
func encodeRecord(rec *record) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("00000000 ")
	if err := json.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	sum := crc32.Checksum(b[crcLen:len(b)-1], castagnoli)
	hex.Encode(b[:8], []byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)})
	return b, nil
}

// decodeRecord checks one line (without its newline) against its checksum
// and decodes the payload.
func decodeRecord(line []byte, rec *record) bool {
	if len(line) <= crcLen || line[8] != ' ' {
		return false
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[:8]); err != nil {
		return false
	}
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	if crc32.Checksum(line[crcLen:], castagnoli) != want {
		return false
	}
	return json.Unmarshal(line[crcLen:], rec) == nil
}

// errCorrupt marks a state file LoadState quarantines.
var errCorrupt = errors.New("fleetd: corrupt job journal")

// journal is a job's journal, folded: replayed from disk, or grown by the
// run one shard record at a time through the same apply.
type journal struct {
	spec    JobSpec
	shards  int // completed shards
	merged  *fleet.Report
	torture *torture.Report
	// state and err come from the end record; state is "" without one.
	state, err string
	// progress is the done count after each shard record: the job's stream
	// history.
	progress []int
	// size is the length of the valid records on disk; a dropped torn tail
	// or a failed append lies beyond it and the next append overwrites it.
	size int64
}

// replayJournal folds a journal's records. A bad last record is a torn
// append and is dropped; a bad record anywhere else, a missing header, or
// records that do not form one job's history are errCorrupt.
func replayJournal(id string, data []byte) (*journal, error) {
	jr := &journal{}
	off, n := 0, 0
	for ; off < len(data); n++ {
		end := bytes.IndexByte(data[off:], '\n')
		var rec record
		if end < 0 || !decodeRecord(data[off:off+end], &rec) {
			if n > 0 && (end < 0 || off+end+1 == len(data)) {
				break // torn tail
			}
			return nil, fmt.Errorf("%w: %s: bad record %d", errCorrupt, id, n)
		}
		if err := jr.apply(id, n, &rec); err != nil {
			return nil, fmt.Errorf("%w: %s: record %d: %v", errCorrupt, id, n, err)
		}
		off += end + 1
		jr.size = int64(off)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: %s: no header", errCorrupt, id)
	}
	return jr, nil
}

// apply folds the n-th record of job id's journal (the header is record 0,
// shard k record k) into jr. Replay applies every record it reads; a run
// applies each shard record it appends.
func (jr *journal) apply(id string, n int, rec *record) error {
	if n == 0 {
		if rec.Kind != recHeader || rec.V != journalVersion || rec.ID != id || rec.Spec == nil {
			return errors.New("not a header for this job")
		}
		jr.spec = *rec.Spec
		return nil
	}
	if jr.state != "" {
		return errors.New("record after the end record")
	}
	switch rec.Kind {
	case recShard:
		if rec.Shard != jr.shards+1 {
			return fmt.Errorf("shard %d after %d", rec.Shard, jr.shards)
		}
		if err := jr.merge(rec); err != nil {
			return err
		}
		jr.shards = rec.Shard
		jr.progress = append(jr.progress, jr.done())
	case recEnd:
		switch rec.State {
		case StateDone:
			if jr.merged == nil && jr.torture == nil || jr.done() != jr.spec.total() {
				return fmt.Errorf("done with %d of %d", jr.done(), jr.spec.total())
			}
		case StateFailed, StateCancelled:
		default:
			return fmt.Errorf("end state %q", rec.State)
		}
		jr.state, jr.err = rec.State, rec.Error
	default:
		return fmt.Errorf("record kind %q", rec.Kind)
	}
	return nil
}

// merge folds a shard record's report of the job's type.
func (jr *journal) merge(rec *record) error {
	if jr.spec.kind() == TypeTorture {
		switch {
		case rec.Torture == nil || rec.Report != nil:
			return errors.New("torture job shard without a torture report")
		case jr.torture == nil:
			jr.torture = rec.Torture
			return nil
		}
		return jr.torture.Merge(rec.Torture)
	}
	switch {
	case rec.Report == nil || rec.Torture != nil:
		return errors.New("fleet job shard without a fleet report")
	case jr.merged == nil:
		jr.merged = rec.Report
		return nil
	}
	return jr.merged.Merge(rec.Report)
}

// done counts the devices or programs the replayed shards cover.
func (jr *journal) done() int {
	switch {
	case jr.merged != nil:
		return jr.merged.Devices
	case jr.torture != nil:
		return jr.torture.Programs
	}
	return 0
}

// encodeFinal encodes the merge compactly (nil when no shard is folded): a
// terminal job's report, whether its run settles it or a replay reads it.
func (jr *journal) encodeFinal() ([]byte, error) {
	switch {
	case jr.merged != nil:
		return json.Marshal(jr.merged)
	case jr.torture != nil:
		return json.Marshal(jr.torture)
	}
	return nil, nil
}

// readCut returns the cut file's campaign cut when it belongs to the shard
// after the journal's completed ones; a missing, bad or stale cut is nil and
// the shard reruns from its start.
func readCut(path string, shards int) *fleet.CampaignCheckpoint {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var rec record
	if !decodeRecord(bytes.TrimSuffix(data, []byte{'\n'}), &rec) ||
		rec.Kind != recCut || rec.Shard != shards+1 {
		return nil
	}
	return rec.Cut
}

// persistFS is the file surface every journal and cut write goes through.
type persistFS interface {
	// replace atomically replaces path with data through a temp file and a
	// rename; durable also fsyncs the file and then its directory.
	replace(path string, data []byte, durable bool) error
	// appendAt cuts path back to off, writes data there and fsyncs.
	appendAt(path string, off int64, data []byte) error
}

// osFS is the real file system.
type osFS struct{}

func (osFS) replace(path string, data []byte, durable bool) error {
	tmp := path + ".tmp"
	err := writeFile(tmp, data, durable)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if durable {
		return syncDir(filepath.Dir(path))
	}
	return nil
}

func writeFile(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (osFS) appendAt(path string, off int64, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	// The cut discards a torn tail left by a failed append or a crash.
	err = f.Truncate(off)
	if err == nil {
		_, err = f.WriteAt(data, off)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// journalPath places job journals in the state dir; IDs are "job-<n>" so
// the path is filesystem-safe by construction.
func (s *Server) journalPath(id string) string {
	return filepath.Join(s.StateDir, id+".json")
}

// cutPath is the side file holding a job's interrupted-shard cut.
func (s *Server) cutPath(id string) string {
	return filepath.Join(s.StateDir, id+".cut")
}

// write performs one journal or cut write, counting its bytes, latency and
// failure on /metrics.
func (s *Server) write(n int, op func() error) error {
	start := time.Now()
	err := op()
	mPersistLatency.Observe(uint64(time.Since(start).Microseconds()))
	if err != nil {
		mPersistFailures.Inc()
		return err
	}
	mPersistBytes.Add(uint64(n))
	return nil
}

// frame encodes rec for the journal; nil when the daemon keeps no state or
// the record cannot be encoded (counted as a persist failure).
func (s *Server) frame(rec *record) []byte {
	if s.StateDir == "" {
		return nil
	}
	data, err := encodeRecord(rec)
	if err != nil {
		mPersistFailures.Inc()
		return nil
	}
	return data
}

// createJournal writes a new job's header durably.
func (s *Server) createJournal(j *Job) error {
	data := s.frame(&record{Kind: recHeader, V: journalVersion, ID: j.ID, Spec: &j.Spec})
	if data == nil {
		return fmt.Errorf("fleetd: encoding %s header", j.ID)
	}
	if err := s.write(len(data), func() error { return s.files.replace(s.journalPath(j.ID), data, true) }); err != nil {
		return fmt.Errorf("fleetd: persisting %s: %w", j.ID, err)
	}
	j.jr.size = int64(len(data))
	return nil
}

// appendJournal appends framed records to j's journal and fsyncs. Records a
// failed append could not land stay pending, in order, and go out ahead of
// the next append, so the journal never skips a record.
func (s *Server) appendJournal(j *Job, data []byte) error {
	if s.StateDir == "" {
		return nil
	}
	buf := append(j.pending, data...)
	if len(buf) == 0 {
		return nil
	}
	if err := s.write(len(buf), func() error { return s.files.appendAt(s.journalPath(j.ID), j.jr.size, buf) }); err != nil {
		j.pending = buf
		return fmt.Errorf("fleetd: persisting %s: %w", j.ID, err)
	}
	j.jr.size += int64(len(buf))
	j.pending = nil
	return nil
}

// writeCut replaces j's cut file with a cut of its shard-th shard. The
// scheduler journals shards in order and cuts only the lowest one in flight,
// so every shard below this one has been appended; the cut is written only
// if those appends are all durable, leaving the cut file to serve the shard a
// resume starts at.
func (s *Server) writeCut(j *Job, shard int, cut *fleet.CampaignCheckpoint) {
	data := s.frame(&record{Kind: recCut, Shard: shard, Cut: cut})
	if data == nil {
		return
	}
	if j.pending != nil {
		return // a resume starts at the pending shard, not this one
	}
	// A failure is counted; the previous cut stays, or the shard reruns.
	_ = s.write(len(data), func() error { return s.files.replace(s.cutPath(j.ID), data, false) })
}

// loadJob replays one job's journal.
func (s *Server) loadJob(id string) (*Job, error) {
	data, err := os.ReadFile(s.journalPath(id))
	if err != nil {
		return nil, err
	}
	jr, err := replayJournal(id, data)
	if err != nil {
		return nil, err
	}
	j := newJob(id, jr)
	if jr.state != "" {
		// Terminal jobs come back cold: report reads replay the journal. A
		// cut left by a crash right after the end record is dropped.
		j.state, j.errMsg, j.cold, j.jr = jr.state, jr.err, true, nil
		_ = os.Remove(s.cutPath(id))
		return j, nil
	}
	if j.Spec.kind() == TypeFleet {
		j.cut = readCut(s.cutPath(id), jr.shards)
	}
	return j, nil
}

// LoadState re-registers every job journal found in the state directory.
// Terminal jobs come back cold and serve their stream and report from the
// journal; interrupted jobs re-enter the queue with their replayed merge and
// cut. A journal that cannot be replayed is renamed to <name>.corrupt,
// counted on /metrics, and skipped, so one bad file never stops the other
// jobs from resuming. Temp files a crash left behind are removed. Call
// before Submit and Start.
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
	var loaded []*Job
	maxID := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "job-") {
			continue
		}
		// Every file of a job, quarantined ones too, keeps IDs monotonic, so
		// a new job never reuses an old job's name or side files.
		if n := jobNum(name); n > maxID {
			maxID = n
		}
		path := filepath.Join(s.StateDir, name)
		if strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(path)
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		j, err := s.loadJob(strings.TrimSuffix(name, ".json"))
		if errors.Is(err, errCorrupt) {
			mCorruptStateFiles.Inc()
			if err := os.Rename(path, path+".corrupt"); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		loaded = append(loaded, j)
	}
	// Submission order is the ID order; re-queue in the same order.
	sort.Slice(loaded, func(a, b int) bool { return jobNum(loaded[a].ID) < jobNum(loaded[b].ID) })

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range loaded {
		s.jobs[j.ID] = j
		s.order = append(s.order, j)
		if j.state == StateQueued {
			s.queue = append(s.queue, j)
		}
	}
	if maxID >= s.nextID {
		s.nextID = maxID + 1
	}
	return nil
}

// jobNum extracts the number of a "job-<n>" ID or file name (0 if
// malformed).
func jobNum(name string) int {
	digits := strings.TrimPrefix(name, "job-")
	if i := strings.IndexByte(digits, '.'); i >= 0 {
		digits = digits[:i]
	}
	n, _ := strconv.Atoi(digits)
	return n
}
