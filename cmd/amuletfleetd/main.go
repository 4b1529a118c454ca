// Command amuletfleetd serves fleet simulation as a long-running daemon:
// campaigns are submitted as JSON jobs over HTTP, scheduled across a shared
// worker pool with a persistent build cache, streamed as NDJSON progress,
// and checkpointed to a state directory so a killed daemon picks up where it
// left off — with final reports byte-identical to one-shot amuletfleet runs.
//
//	amuletfleetd -addr 127.0.0.1:8470 -state /var/lib/amuletfleetd
//	curl -X POST -d '{"devices":200,"mode":"mpu"}' http://127.0.0.1:8470/jobs
//	curl http://127.0.0.1:8470/jobs/job-1/stream        # NDJSON progress
//	curl http://127.0.0.1:8470/jobs/job-1/report        # == amuletfleet -json
//
// A job runs in shards, two at a time, finishing in order. The shard size is
// part of the job's spec: "shardDevices" (default 25) for a fleet,
// "shardPrograms" (default 250) for a torture campaign. Submit journals the
// resolved size, so a job keeps its shards across restarts.
//
// Started over a -state directory that holds jobs, the daemon reloads them:
// finished jobs serve their streams and reports again, and jobs a crash or
// SIGKILL interrupted continue from their last checkpoint, ahead of new
// submits.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"amuletiso/internal/fleet"
	"amuletiso/internal/fleetd"
	"amuletiso/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8470", "listen address (host:port, :0 picks a free port)")
	state := flag.String("state", "", "state directory for job persistence and crash recovery; jobs already in it are reloaded and interrupted ones continue (empty = in-memory only)")
	parallel := flag.Int("parallel", 0, "simulation worker goroutines (0 = all cores)")
	flush := flag.Duration("flush", 2*time.Second, "period of the flush tick while a job runs: the job's lowest running shard is asked for fresh snapshots at the first tick after it becomes the lowest, and its cuts are written from the next, so a cut is at most one flush plus one event batch stale")
	flag.Parse()

	s := fleetd.NewServer(*state)
	s.Runner = &fleet.Runner{Workers: *parallel, Cache: fleet.NewBuildCache()}
	s.FlushEvery = *flush
	if *state != "" {
		err := os.MkdirAll(*state, 0o755)
		if err == nil {
			err = s.LoadState()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "amuletfleetd: %v\n", err)
			os.Exit(1)
		}
	}
	s.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "amuletfleetd: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("amuletfleetd listening on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("amuletfleetd: shutting down")
	// Stop the scheduler first so the running job parks a consistent cut and
	// re-queues on disk; then drain HTTP so in-flight scrapes and report
	// fetches complete.
	s.Stop()
	obs.StopServer(srv)
}
