package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"amuletiso/internal/fleetd"
)

// jobClient drives a fleetd daemon over HTTP the way an operator would:
// submit, follow the NDJSON progress stream to its terminal line, fetch the
// report.
type jobClient struct {
	base     string
	http     *http.Client
	stateDir string
}

// streamLine is the part of a progress line the client reads.
type streamLine struct {
	State string `json:"state"`
	Error string `json:"error"`
}

// run performs one job and returns the report bytes. Non-2xx responses and
// jobs that end in any state but done are errors.
func (c *jobClient) run(ctx context.Context, spec fleetd.JobSpec, tr *tracer, op, parent int) ([]byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	sp := tr.begin(op, parent, "fleetd.submit")
	resp, err := c.do(ctx, http.MethodPost, "/jobs", body)
	if err != nil {
		return nil, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	tr.end(sp)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return nil, fmt.Errorf("submit refused: %s (%v)", resp.Status, err)
	}
	rec := jobRecord{daemon: c.base, submitted: time.Now(), traced: tr != nil}
	if _, err := fmt.Sscanf(sub.ID, "job-%d", &rec.n); err != nil {
		return nil, fmt.Errorf("unexpected job id %q", sub.ID)
	}

	// The daemon sends the stream's headers with its first line, so the wait
	// for first progress starts with the request.
	sp = tr.begin(op, parent, "fleetd.stream")
	wait := tr.begin(op, sp, "fleetd.wait")
	resp, err = c.do(ctx, http.MethodGet, "/jobs/"+sub.ID+"/stream", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream refused: %s", resp.Status)
	}
	rd := bufio.NewReaderSize(resp.Body, 1<<16)
	shards, state := 0, ""
	for state == "" || state == fleetd.StateRunning {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			rec.streamBytes += len(line)
			var ev streamLine
			if err := json.Unmarshal(line, &ev); err != nil {
				return nil, fmt.Errorf("bad stream line: %w", err)
			}
			state = ev.State
			switch {
			case state == fleetd.StateRunning && shards == 0:
				tr.endAs(wait, "fleetd.first_progress")
			case state == fleetd.StateRunning:
				tr.endAs(wait, "fleetd.shard_gap")
			default:
				tr.endAs(wait, "fleetd.finish")
				if state != fleetd.StateDone {
					return nil, fmt.Errorf("job %s ended %s: %s", sub.ID, state, ev.Error)
				}
			}
			shards++
			wait = tr.begin(op, sp, "fleetd.wait")
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	tr.endAs(wait, "fleetd.finish")
	if state != fleetd.StateDone {
		// The daemon ends the stream as soon as the job's state turns
		// terminal, which can be before it appends the terminal line; the
		// job's status then says how it ended.
		missedTerminal.Add(1)
		if err := c.checkDone(ctx, sub.ID); err != nil {
			return nil, err
		}
	}
	rec.terminal = time.Now()
	tr.end(sp)

	sp = tr.begin(op, parent, "fleetd.report")
	resp2, err := c.do(ctx, http.MethodGet, "/jobs/"+sub.ID+"/report", nil)
	if err != nil {
		return nil, err
	}
	report, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if resp2.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("report refused: %s", resp2.Status)
	}
	if rec.traced {
		if fi, err := os.Stat(filepath.Join(c.stateDir, sub.ID+".json")); err == nil {
			rec.stateBytes = int(fi.Size())
		}
	}
	jobs.add(rec)
	return report, nil
}

// jobRecord is what one fleetd job showed its client.
type jobRecord struct {
	daemon                  string // the daemon's base URL
	n                       int    // the job's number: IDs are job-<n>
	submitted, terminal     time.Time
	streamBytes, stateBytes int
	traced                  bool
}

// jobLog keeps every job's record, untraced ones too: a traced job's queue
// wait ends when the job before it, traced or not, finishes.
type jobLog struct {
	mu   sync.Mutex
	recs []jobRecord
}

var jobs jobLog

func (l *jobLog) add(r jobRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, r)
}

// queueWaitMS is the mean queue wait of the traced jobs. Jobs run one at a
// time in submission order, so a job waits from its submission until the job
// before it finishes. It also returns the traced jobs' mean stream and
// state-file sizes.
func (l *jobLog) stats() (queueMS, streamKB, stateKB float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	type key struct {
		daemon string
		n      int
	}
	finished := map[key]time.Time{}
	for _, j := range l.recs {
		finished[key{j.daemon, j.n}] = j.terminal
	}
	var waits []float64
	for _, j := range l.recs {
		if !j.traced {
			continue
		}
		wait := 0.0
		if prev, ok := finished[key{j.daemon, j.n - 1}]; ok && prev.After(j.submitted) {
			wait = float64(prev.Sub(j.submitted)) / 1e6
		}
		waits = append(waits, wait)
		streamKB += float64(j.streamBytes) / 1024
		stateKB += float64(j.stateBytes) / 1024
	}
	if n := float64(len(waits)); n > 0 {
		streamKB /= n
		stateKB /= n
	}
	return mean(waits), streamKB, stateKB
}

// missedTerminal counts streams that ended without their terminal line.
var missedTerminal atomic.Int64

// checkDone fetches a job's status and fails unless the job is done.
func (c *jobClient) checkDone(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var v fleetd.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job status refused: %s (%v)", resp.Status, err)
	}
	if v.State != fleetd.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, v.State, v.Error)
	}
	return nil
}

func (c *jobClient) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	return c.http.Do(req)
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		logf("removing %s: %v", dir, err)
	}
}
