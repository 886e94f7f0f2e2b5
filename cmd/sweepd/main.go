// Command sweepd is the sweep fleet's control plane: it serves a
// persistent result store (an exp.DiskCache) over HTTP and, on top of
// it, an HTTP job queue that partitions submitted experiment matrices
// into fingerprint-keyed shard slices and leases them to pull-based
// workers:
//
//	sweepd -cache /srv/repro-cache -journal /srv/repro-queue -addr :8078
//	sweep -submit http://stately:8078 -workload pattern:alltoall   # submit + wait
//	sweep -worker http://stately:8078                              # one per core on each machine
//
// The store alone is the shared cache of a sharded sweep or of
// gridrepro: `sweep -shard i/n -cache-remote URL` pulls warm entries
// from it and pushes fresh results back, with no job ever submitted.
// The directory stays an ordinary -cache dir (replayable, evictable,
// verifiable with gridrepro -cache-verify).
//
// Workers publish every computed result through the store's verified
// ingest (PUT /v1/results/<fp>, re-hashed on arrival) before reporting
// the cell done, and the queue re-verifies by reading the entry back —
// a lying or stale worker cannot mark a cell complete. Leases expire
// when a worker stops reporting (kill -9 loses zero cells: the slice
// requeues whole), and idle workers steal the back half of the
// largest straggler's slice. Because results are pure functions of
// their experiment and writes are content-addressed and idempotent,
// duplicated compute from expiry or stealing is harmless.
//
// With -journal, the queue itself is crash-safe: every transition
// appends to a write-ahead log in that directory, and a restarted
// sweepd — even after kill -9 — replays it, re-verifies every claimed
// done cell against the store, and resumes all in-flight jobs where
// they stopped. Workers running with a retry window ride through the
// restart; nothing is resubmitted and no verified cell is recomputed.
// On SIGTERM/SIGINT the server drains instead of dropping: no new
// leases, in-flight reports accepted for -drain-grace, state
// checkpointed, exit 0.
//
// Endpoints: the results protocol (GET /healthz, GET /v1/results,
// GET/HEAD/PUT /v1/results/{fp}), POST/GET /v1/jobs, GET /v1/jobs/{id},
// POST /v1/jobs/{id}/report, POST /v1/lease, and GET /statusz (store
// counters, every job's progress, queue tuning, journal accounting).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
}

// errFlagParse marks a parse failure the FlagSet has already reported on
// stderr; main must not print it a second time.
var errFlagParse = errors.New("flag parsing failed")

// stop receives the shutdown signals; tests inject into it directly.
var stop = make(chan os.Signal, 1)

// logRequests is the -v middleware: one stderr line per request.
func logRequests(h http.Handler, errOut io.Writer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(errOut, "sweepd: %s %s from %s\n", r.Method, r.URL.Path, r.RemoteAddr)
		h.ServeHTTP(w, r)
	})
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dir := fs.String("cache", "", "result-store directory to serve (required; created if missing)")
	journalDir := fs.String("journal", "", "queue journal directory: jobs and leases survive restarts (empty = in-memory queue)")
	addr := fs.String("addr", "127.0.0.1:8078", "listen address (host:port; port 0 picks a free one)")
	ttl := fs.Duration("lease-ttl", exp.DefaultLeaseTTL, "lease deadline: a worker silent this long forfeits its slice")
	slices := fs.Int("slices", exp.DefaultJobSlices, "lease slices to partition each job into (submissions may override)")
	poll := fs.Duration("poll", exp.DefaultWorkerPoll, "idle-poll interval advertised to workers on lease responses")
	drainGrace := fs.Duration("drain-grace", 10*time.Second, "on SIGTERM, accept in-flight reports this long before exiting")
	verbose := fs.Bool("v", false, "log every request to stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse // already reported by the FlagSet
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errOut, "unexpected arguments: %v\n", fs.Args())
		return errFlagParse
	}
	if *dir == "" {
		return fmt.Errorf("-cache is required: the result-store directory to serve")
	}
	if *ttl <= 0 {
		return fmt.Errorf("-lease-ttl must be positive, got %v", *ttl)
	}
	if *slices < 1 {
		return fmt.Errorf("-slices must be ≥ 1, got %d", *slices)
	}
	if *poll <= 0 {
		return fmt.Errorf("-poll must be positive, got %v", *poll)
	}
	store, err := exp.NewDiskCache(*dir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	cfg := exp.QueueConfig{TTL: *ttl, Slices: *slices, Poll: *poll}
	var queue *exp.JobQueue
	if *journalDir != "" {
		recovered, report, err := exp.RecoverJobQueue(store, cfg, *journalDir)
		if err != nil {
			return err
		}
		queue = recovered
		defer queue.Close()
		if report.Jobs > 0 || report.Records > 0 || report.TailTruncated {
			fmt.Fprintf(errOut, "sweepd: %s\n", report)
		}
	} else {
		queue = exp.NewJobQueue(store, cfg)
	}
	var handler http.Handler = exp.NewQueueHandler(queue, exp.NewCacheServer(store))
	if *verbose {
		handler = logRequests(handler, errOut)
	}
	n, err := store.Len()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sweepd: serving %s (%d entries) on http://%s (lease TTL %v, %d slices/job)\n",
		store.Dir(), n, ln.Addr(), *ttl, *slices)

	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case sig := <-stop:
		fmt.Fprintf(errOut, "sweepd: %v, draining (grace %v)\n", sig, *drainGrace)
		// Graceful drain: refuse new leases while the server keeps
		// answering, give in-flight reports a grace window to land,
		// checkpoint the journal, then stop serving.
		queue.SetDraining(true)
		deadline := time.Now().Add(*drainGrace)
		for queue.ActiveLeases() > 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
		if err := queue.Checkpoint(); err != nil {
			fmt.Fprintf(errOut, "sweepd: checkpoint: %v\n", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
