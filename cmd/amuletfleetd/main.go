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
// After a crash or SIGKILL, restart with -resume to reload persisted jobs
// and continue interrupted campaigns from their last checkpoint.
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
	state := flag.String("state", "", "state directory for job persistence and crash recovery (empty = in-memory only)")
	resume := flag.Bool("resume", false, "reload persisted jobs from -state and continue interrupted campaigns")
	parallel := flag.Int("parallel", 0, "simulation worker goroutines (0 = all cores)")
	shard := flag.Int("shard-devices", 25, "devices per checkpointable shard; two run at a time and finish in order (0 = whole fleet at once)")
	shardProgs := flag.Int("shard-programs", 250, "torture programs per mergeable shard; two run at a time and finish in order (0 = whole campaign at once)")
	flush := flag.Duration("flush", 2*time.Second, "real-time interval between checkpoint writes while a job runs; each write cuts the job's lowest running shard, which the previous flush asked for fresh snapshots, so a cut is at most one flush plus one event batch stale")
	flag.Parse()

	if *state != "" {
		if err := os.MkdirAll(*state, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "amuletfleetd: %v\n", err)
			os.Exit(1)
		}
	}

	s := fleetd.NewServer(*state)
	s.Runner = &fleet.Runner{Workers: *parallel, Cache: fleet.NewBuildCache()}
	s.ShardDevices = *shard
	s.ShardPrograms = *shardProgs
	s.FlushEvery = *flush
	if *resume {
		if err := s.LoadState(); err != nil {
			fmt.Fprintf(os.Stderr, "amuletfleetd: resume: %v\n", err)
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
