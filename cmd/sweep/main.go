// Command sweep expands and runs declarative experiment sweeps on the
// internal/exp engine: cross-products of implementation × tuning ×
// topology × workload execute across a bounded worker pool, with results
// rendered as an implementation × configuration matrix, CSV, or JSON.
//
// The default invocation reproduces the paper's full implementation ×
// tuning pingpong matrix (Figures 3, 6 and 7 in one command):
//
//	sweep
//	sweep -reps 200 -workers 8
//	sweep -workload npb:all -topo grid -nodes 8 -scale 0.1
//	sweep -workload pattern:alltoall -size 1M -iters 5 -format csv
//	sweep -faults "seed=7; 0s loss 0.02; 100ms jitter 2ms site=nancy"
//	sweep -guidelines -size 64k -iters 5
//
// The axis flags, -impls through -max-size, are exp.Axes: the grammar
// cmd/gridsim shares, so the same flags name the same cells in both.
//
// -guidelines appends a Hunold-style self-consistency pass: the
// collective patterns run per impl × tuning × topology through the same
// cached runner, and any configuration where a specialized collective is
// slower than a composition of general ones (Allgather vs Gather+Bcast,
// Reduce vs Allreduce, ...) is reported as a violation; violations exit
// nonzero, linter-style.
//
// Results persist to a local directory (-cache) and/or a shared
// cmd/sweepd server (-cache-remote); -shard i/n partitions a matrix
// across machines that all point at one server, and -push/-pull sync an
// existing cache directory with a server one-shot:
//
//	sweep -shard 1/4 -cache-remote http://stately:8078
//	sweep -cache ~/.cache/sweep -cache-remote http://stately:8078 -push
//
// With a cmd/sweepd control plane the partitioning is automatic:
// -submit posts the matrix as a job and waits for the fleet, -worker
// turns the invocation into a pull-based fleet worker that leases
// cells, computes them, and publishes results through the server's
// verified store. A worker computes one cell at a time, so a machine
// runs one worker per core; workers can be killed and added at any time.
//
//	sweep -submit http://stately:8078 -workload pattern:alltoall
//	sweep -worker http://stately:8078
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

// workerStop receives the worker-mode shutdown signals; tests inject
// into it directly.
var workerStop = make(chan os.Signal, 1)

func run(args []string, out, errOut io.Writer) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(errOut)
	axes := exp.Axes{Impls: "all", Tunings: "default,tcp,full", Nodes: 1, Workload: "pingpong",
		Reps: 50, Size: "1M", Iters: 10, Scale: 0.1, MaxSize: "64M"}
	axes.Register(fs)
	var rf exp.RunFlags
	rf.Register(fs)
	pushFlag := fs.Bool("push", false, "instead of sweeping, upload every -cache entry the -cache-remote server is missing, then exit")
	pullFlag := fs.Bool("pull", false, "instead of sweeping, download every -cache-remote entry missing from -cache, then exit (with -push too: pull first, then push)")
	faultsStr := fs.String("faults", "", `seeded fault plan applied to every experiment: semicolon-separated clauses "seed=N", "<time> down|up site=S|host=H", "<time> loss <p> [site=|host=]", "<time> jitter <dur> [site=|host=]" — e.g. "seed=7; 100ms down site=rennes; 300ms up site=rennes"`)
	shardStr := fs.String("shard", "", `run only shard i of n ("i/n"): a deterministic fingerprint-keyed partition of the matrix, so shards on different machines can share one -cache-remote server (or merge their -cache directories by plain file copy)`)
	submitURL := fs.String("submit", "", "submit the matrix to the cmd/sweepd control plane at this URL and wait for the fleet, rendering results like a local run")
	detach := fs.Bool("detach", false, "with -submit: print the job ID and return immediately instead of waiting")
	slicesFlag := fs.Int("slices", 0, "with -submit: lease slices to partition the job into (0 = server default)")
	workerURL := fs.String("worker", "", "run as a pull-based fleet worker against the cmd/sweepd control plane at this URL (matrix flags are ignored; the server decides what runs)")
	workerID := fs.String("worker-id", "", "worker name in leases and liveness reports (default host:pid)")
	workerIdleExit := fs.Int("worker-idle-exit", 0, "with -worker: exit after this many consecutive empty polls (0 = poll forever)")
	retryWindow := fs.Duration("retry", exp.DefaultRetryWindow, "with -worker/-submit: retry budget for transient control-plane failures (connection refused, 5xx, timeouts), so the fleet rides through a sweepd restart; 0 fails on the first error")
	guidelines := fs.Bool("guidelines", false, "after the sweep, run the Hunold-style self-consistency guideline suite (collective patterns at -size x -iters) for every impl x tuning x topology and flag configurations where a specialized collective loses to a composition of general ones (e.g. Allgather slower than Gather+Bcast)")
	format := fs.String("format", "table", "output: table, csv, json")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse // already reported by the FlagSet
	}

	// Every flag is checked, in every mode, before the run opens its
	// store and starts its profiles, so a refused invocation creates
	// neither.
	switch *format {
	case "table", "csv", "json":
	default:
		return fmt.Errorf("unknown -format %q", *format)
	}
	// A negative count or window is a typo, not the server default, an
	// endless poll or no retry.
	if *slicesFlag < 0 || *workerIdleExit < 0 || *retryWindow < 0 {
		return fmt.Errorf("-slices, -worker-idle-exit and -retry must be ≥ 0, got %d, %d and %v", *slicesFlag, *workerIdleExit, *retryWindow)
	}
	sweep, err := axes.Sweep()
	if err != nil {
		return err
	}
	shard := exp.Shard{}
	if *shardStr != "" {
		if shard, err = exp.ParseShard(*shardStr); err != nil {
			return err
		}
	}
	faults, err := exp.ParseFaultPlan(*faultsStr)
	if err != nil {
		return err
	}
	if *guidelines && faults != nil {
		// A guideline compares an implementation against itself on a
		// healthy network; under a fault plan a violation would indict the
		// faults, not the collective algorithm.
		return fmt.Errorf("-guidelines assumes a healthy network; drop -faults")
	}
	// -push / -pull are one-shot sync modes: no sweep runs, the local
	// -cache directory is reconciled with the -cache-remote server.
	syncing := *pushFlag || *pullFlag
	if syncing && (rf.Cache == "" || rf.Remote == "") {
		return fmt.Errorf("-push/-pull need both -cache (the local directory) and -cache-remote (the server)")
	}
	// -worker and -submit talk to a sweepd control plane, which is also
	// the result store they run through: the worker publishes what it
	// computes there, and the submitter reads the fleet's results back.
	fleetURL := *workerURL
	if *submitURL != "" {
		if fleetURL != "" {
			return fmt.Errorf("-worker and -submit are exclusive: one invocation is either fleet muscle or the submitting client")
		}
		if !shard.IsAll() {
			return fmt.Errorf("-shard does not combine with -submit: the control plane partitions the matrix itself")
		}
		if *guidelines {
			return fmt.Errorf("-guidelines is a local post-processor; drop -submit")
		}
		fleetURL = *submitURL
	}
	if *workerURL != "" {
		if rf.Workers > 1 {
			return fmt.Errorf("-worker computes one cell at a time, so -workers %d would go unused: start one worker per core instead", rf.Workers)
		}
		rf.Workers = 1
	}
	var client *exp.QueueClient
	if fleetURL != "" {
		if rf.Remote != "" {
			return fmt.Errorf("-cache-remote does not combine with -worker or -submit: their sweepd is their result store")
		}
		if client, err = exp.NewQueueClient(fleetURL); err != nil {
			return err
		}
		// The retry window is what lets the fleet survive a sweepd
		// restart: the journaled queue comes back still holding the job.
		client.Retry = exp.Backoff{Window: *retryWindow}
		rf.Remote = fleetURL
	}
	sess, err := rf.Open()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close(errOut)) }()
	if client != nil {
		sess.Remote.Retry = client.Retry
	}

	switch {
	case syncing:
		return syncStore(out, sess.Remote, *pullFlag, *pushFlag)
	case *workerURL != "":
		return work(out, errOut, client, sess.Runner, *workerURL, *workerID, *workerIdleExit)
	}
	all := sweep.Experiments()
	// Faults apply before sharding: the partition keys on the faulted
	// fingerprints, so every shard of a faulted matrix agrees on ownership.
	if faults != nil {
		for i := range all {
			all[i].Faults = faults
		}
	}
	if *submitURL != "" {
		return submit(out, errOut, client, sess.Remote, all, *slicesFlag, *detach, *format, axes.Workload)
	}
	exps := shard.Select(all)
	start := time.Now()
	results := sess.Runner.RunAll(exps)
	wall := time.Since(start)
	title := fmt.Sprintf("Sweep: %d experiments (%s workload)", len(results), axes.Workload)
	if !shard.IsAll() {
		title = fmt.Sprintf("Sweep shard %s: %d of %d experiments (%s workload)",
			shard, len(results), sweep.Size(), axes.Workload)
	}
	footer := fmt.Sprintf("%d experiments, %d workers, wall time %v",
		len(results), sess.Runner.Workers(), wall.Round(time.Millisecond))
	if err := render(out, *format, results, title, footer); err != nil {
		return err
	}
	// The guideline suite is a post-processor: its pattern cells run
	// through the same runner (so they hit the same cache tiers), whole
	// rather than sharded — verdicts need every pattern of a configuration
	// on one machine.
	guidelineViolations := 0
	if *guidelines {
		size, _ := exp.ParseSize(axes.Size) // Sweep has checked it
		suite := exp.GuidelineSuite(sweep.Impls, sweep.Tunings, sweep.Topologies, exp.DefaultGuidelines, size, axes.Iters)
		gres := sess.Runner.RunAll(suite)
		results = append(results, gres...)
		// JSON and CSV keep stdout machine-readable: the report goes to
		// stderr.
		report := out
		if *format != "table" {
			report = errOut
		}
		guidelineViolations = exp.WriteGuidelineReport(report, gres,
			exp.DefaultGuidelines, exp.DefaultGuidelineTolerance)
	}
	// Failed cells render as ERR/err fields above; surface the reason and
	// exit nonzero so scripts don't take a broken sweep as a measurement.
	var failed []exp.Result
	for _, r := range results {
		if r.Err != "" {
			failed = append(failed, r)
		}
	}
	if len(failed) > 0 {
		for _, r := range failed {
			fmt.Fprintf(errOut, "failed: %s: %s\n", r.Exp.Name(), r.Err)
		}
		return fmt.Errorf("%d of %d experiments failed", len(failed), len(results))
	}
	// Like a linter, guideline violations exit nonzero (after the report
	// has been printed) so scripts can gate on self-consistency.
	if guidelineViolations > 0 {
		return fmt.Errorf("%d guideline violations", guidelineViolations)
	}
	return nil
}

// render writes results to out in format: JSON or CSV alone, or a
// matrix table under title with footer below it.
func render(out io.Writer, format string, results []exp.Result, title, footer string) error {
	switch format {
	case "json":
		return exp.WriteJSON(out, results)
	case "csv":
		return exp.WriteCSV(out, results)
	}
	fmt.Fprintln(out, exp.MatrixTable(title, results))
	fmt.Fprintln(out, footer)
	return nil
}

// syncStore is the -push/-pull mode: it reconciles the local tier of
// remote with the server, pulling first, and fails if any entry did not
// transfer.
func syncStore(out io.Writer, remote *exp.RemoteStore, pull, push bool) error {
	failed := 0
	if pull {
		rep, err := remote.Pull()
		if err != nil {
			return fmt.Errorf("pull: %w", err)
		}
		fmt.Fprintf(out, "pull: %s\n", rep)
		failed += rep.Failed
	}
	if push {
		rep, err := remote.Push()
		if err != nil {
			return fmt.Errorf("push: %w", err)
		}
		fmt.Fprintf(out, "push: %s\n", rep)
		failed += rep.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d entries failed to sync", failed)
	}
	return nil
}

// work is the -worker mode, the fleet's execution side: a pull loop
// against the control plane at url. The server decides what runs, and
// the worker computes one cell at a time on runner, which publishes
// through the server's store, so the fleet's unit of parallelism is the
// worker process.
func work(out, errOut io.Writer, client *exp.QueueClient, runner *exp.Runner, url, id string, idleExit int) error {
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	// SIGTERM/SIGINT request a graceful exit: the cell in flight
	// finishes (and reports) before the loop returns.
	stopCh, done := make(chan struct{}), make(chan struct{})
	signal.Notify(workerStop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(workerStop)
	defer close(done)
	go func() {
		select {
		case sig := <-workerStop:
			fmt.Fprintf(errOut, "worker %s: %v, finishing current cell\n", id, sig)
			close(stopCh)
		case <-done:
		}
	}()
	fmt.Fprintf(errOut, "worker %s: polling %s\n", id, url)
	client.Log = errOut
	rep := client.Work(exp.WorkerConfig{
		ID:       id,
		Runner:   runner,
		IdleExit: idleExit,
		Stop:     stopCh,
	})
	fmt.Fprintln(out, rep)
	if rep.Errors > 0 || rep.Rejected > 0 {
		return fmt.Errorf("worker finished degraded: %d transport errors, %d rejected reports", rep.Errors, rep.Rejected)
	}
	return nil
}

// submit is the -submit mode: post the matrix as one job through
// client, wait for the fleet (progress on stderr), read the finished
// cells back from store in submission order, and render them like a
// local run. Failed cells have no stored result; they are reported on
// stderr and fail the invocation, mirroring the local failed-experiment
// exit path.
func submit(out, errOut io.Writer, client *exp.QueueClient, store *exp.RemoteStore, cells []exp.Experiment, slices int, detach bool, format, workload string) error {
	client.Log = errOut
	st, err := client.Submit(cells, slices)
	if err != nil {
		return err
	}
	fmt.Fprintf(errOut, "job %s: %d cells submitted, %d already cached\n", st.ID, st.Total, st.Cached)
	if detach {
		// The job ID is the machine-readable output; progress lives at
		// GET /v1/jobs/<id> and /statusz.
		fmt.Fprintln(out, st.ID)
		return nil
	}
	start := time.Now()
	last := ""
	final, err := client.WaitJob(st.ID, time.Second, func(s exp.JobStatus) {
		line := fmt.Sprintf("job %s: %d/%d done, %d leased, %d queued, %d failed, %d workers",
			s.ID, s.Done, s.Total, s.Leased, s.Queued, s.Failed, len(s.Workers))
		if line != last {
			fmt.Fprintln(errOut, line)
			last = line
		}
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	// Every finished cell comes back through the same verified read path
	// the workers published through; order is the submission order, so
	// the rendering is byte-identical to a local run of the same matrix.
	results := make([]exp.Result, 0, len(cells))
	for _, e := range cells {
		if res, ok := store.Load(e.Fingerprint()); ok {
			results = append(results, res)
		}
	}
	title := fmt.Sprintf("Sweep job %s: %d experiments (%s workload)", st.ID, len(results), workload)
	footer := fmt.Sprintf("%d experiments, %d computed by the fleet, %d cached, wall time %v",
		len(results), final.Computed, final.Cached, wall.Round(time.Millisecond))
	if err := render(out, format, results, title, footer); err != nil {
		return err
	}
	if final.Failed > 0 {
		for _, f := range final.Failures {
			fmt.Fprintf(errOut, "failed: %s: %s\n", f.Name, f.Err)
		}
		return fmt.Errorf("%d of %d cells failed", final.Failed, final.Total)
	}
	return nil
}
