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
	"repro/internal/profiling"
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

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(errOut)
	axes := exp.Axes{Impls: "all", Tunings: "default,tcp,full", Nodes: 1, Workload: "pingpong",
		Reps: 50, Size: "1M", Iters: 10, Scale: 0.1, MaxSize: "64M"}
	axes.Register(fs)
	workers := fs.Int("workers", 0, "worker pool size (0 = one per CPU)")
	cacheDir := fs.String("cache", "", "persistent result-cache directory (empty = in-memory only)")
	remoteURL := fs.String("cache-remote", "", "result-store server URL (a cmd/sweepd instance); with -cache, the directory becomes its local read-through/write-behind tier")
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
	evictStr := fs.String("cache-evict", "", `age/size bound applied to -cache after the run, e.g. "720h", "512M" or "720h,512M"`)
	format := fs.String("format", "table", "output: table, csv, json")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProf := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse // already reported by the FlagSet
	}

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
	// -push / -pull are one-shot sync modes: no sweep runs, the local
	// -cache directory is reconciled with the -cache-remote server.
	if *pushFlag || *pullFlag {
		if *cacheDir == "" || *remoteURL == "" {
			return fmt.Errorf("-push/-pull need both -cache (the local directory) and -cache-remote (the server)")
		}
		local, err := exp.NewDiskCache(*cacheDir)
		if err != nil {
			return err
		}
		remote, err := exp.NewRemoteStore(*remoteURL, local)
		if err != nil {
			return err
		}
		failed := 0
		if *pullFlag {
			rep, err := remote.Pull()
			if err != nil {
				return fmt.Errorf("pull: %w", err)
			}
			fmt.Fprintf(out, "pull: %s\n", rep)
			failed += rep.Failed
		}
		if *pushFlag {
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
	// -worker is the fleet's execution side: an endless pull loop against
	// a sweepd control plane. The matrix flags are ignored — the server
	// decides what runs — and the worker computes one cell at a time, so
	// the fleet's unit of parallelism is the worker process. -cache
	// gives the worker a warm local tier under the server store.
	if *workerURL != "" {
		if *submitURL != "" {
			return fmt.Errorf("-worker and -submit are exclusive: one invocation is either fleet muscle or the submitting client")
		}
		if *workers > 1 {
			return fmt.Errorf("-worker computes one cell at a time, so -workers %d would go unused: start one worker per core instead", *workers)
		}
		id := *workerID
		if id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "worker"
			}
			id = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		client, err := exp.NewQueueClient(*workerURL)
		if err != nil {
			return err
		}
		client.Retry = exp.Backoff{Window: *retryWindow}
		runner, remote, err := exp.NewRunnerCache(1, *cacheDir, *workerURL)
		if err != nil {
			return err
		}
		if remote != nil {
			remote.Retry = exp.Backoff{Window: *retryWindow}
		}
		// SIGTERM/SIGINT request a graceful exit: the cell in flight
		// finishes (and reports) before the loop returns.
		stopCh := make(chan struct{})
		signal.Notify(workerStop, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(workerStop)
		go func() {
			sig := <-workerStop
			fmt.Fprintf(errOut, "worker %s: %v, finishing current cell\n", id, sig)
			close(stopCh)
		}()
		fmt.Fprintf(errOut, "worker %s: polling %s\n", id, *workerURL)
		rep := client.Work(exp.WorkerConfig{
			ID:       id,
			Runner:   runner,
			IdleExit: *workerIdleExit,
			Stop:     stopCh,
			Log:      errOut,
		})
		fmt.Fprintln(out, rep)
		if rep.Errors > 0 || rep.Rejected > 0 {
			return fmt.Errorf("worker finished degraded: %d transport errors, %d rejected reports", rep.Errors, rep.Rejected)
		}
		return nil
	}
	// Every remaining flag is checked before profiling starts, so a
	// refused invocation writes no profile.
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
	var evict exp.EvictPolicy
	if *evictStr != "" {
		if *cacheDir == "" {
			return fmt.Errorf("-cache-evict needs -cache")
		}
		if evict, err = exp.ParseEvictPolicy(*evictStr); err != nil {
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
	if *submitURL != "" {
		if !shard.IsAll() {
			return fmt.Errorf("-shard does not combine with -submit: the control plane partitions the matrix itself")
		}
		if *guidelines {
			return fmt.Errorf("-guidelines is a local post-processor; drop -submit")
		}
	}
	// What the run talks to is built before profiling too, which refuses
	// a malformed -submit or -cache-remote URL.
	var client *exp.QueueClient
	var runner *exp.Runner
	var remote *exp.RemoteStore
	if *submitURL != "" {
		client, err = exp.NewQueueClient(*submitURL)
	} else {
		runner, remote, err = exp.NewRunnerCache(*workers, *cacheDir, *remoteURL)
	}
	if err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(errOut, err)
		}
	}()
	all := sweep.Experiments()
	// Faults apply before sharding: the partition keys on the faulted
	// fingerprints, so every shard of a faulted matrix agrees on ownership.
	if faults != nil {
		for i := range all {
			all[i].Faults = faults
		}
	}
	// -submit hands the whole matrix to a sweepd control plane instead of
	// running it here: the server partitions and leases it to the worker
	// fleet, this invocation waits and then pulls every cell back through
	// the verified read path, rendering exactly like a local run.
	if *submitURL != "" {
		return submit(out, errOut, client, *submitURL, all, *slicesFlag, *detach, *format, axes.Workload, *retryWindow)
	}
	exps := shard.Select(all)
	start := time.Now()
	results := runner.RunAll(exps)
	wall := time.Since(start)

	switch *format {
	case "json":
		if err := exp.WriteJSON(out, results); err != nil {
			return err
		}
	case "csv":
		if err := exp.WriteCSV(out, results); err != nil {
			return err
		}
	default:
		title := fmt.Sprintf("Sweep: %d experiments (%s workload)", len(results), axes.Workload)
		if !shard.IsAll() {
			title = fmt.Sprintf("Sweep shard %s: %d of %d experiments (%s workload)",
				shard, len(results), sweep.Size(), axes.Workload)
		}
		fmt.Fprintln(out, exp.MatrixTable(title, results))
		fmt.Fprintf(out, "%d experiments, %d workers, wall time %v\n",
			len(results), runner.Workers(), wall.Round(time.Millisecond))
	}
	// The guideline suite is a post-processor: its pattern cells run
	// through the same runner (so they hit the same cache tiers), whole
	// rather than sharded — verdicts need every pattern of a configuration
	// on one machine.
	guidelineViolations := 0
	if *guidelines {
		size, _ := exp.ParseSize(axes.Size) // Sweep has checked it
		suite := exp.GuidelineSuite(sweep.Impls, sweep.Tunings, sweep.Topologies, exp.DefaultGuidelines, size, axes.Iters)
		gres := runner.RunAll(suite)
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
	if *cacheDir != "" || *remoteURL != "" {
		stats := runner.CacheStats()
		// With a remote store the backing tier is not (only) local disk.
		source := "from disk"
		if remote != nil {
			source = "from store"
		}
		fmt.Fprintf(errOut, "cache: %d computed, %d %s, %d from memory\n",
			stats.Computed, stats.Disk, source, stats.Memory)
	}
	if remote != nil {
		fmt.Fprintln(errOut, remote.Stats())
	}
	if evict != (exp.EvictPolicy{}) {
		store, err := exp.NewDiskCache(*cacheDir)
		if err != nil {
			return fmt.Errorf("cache eviction: %w", err)
		}
		rep, err := store.Evict(evict)
		if err != nil {
			return fmt.Errorf("cache eviction: %w", err)
		}
		fmt.Fprintln(errOut, rep)
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

// submit is the -submit mode: post the matrix as one job through
// client, the control plane at url, wait for the fleet (progress on
// stderr), pull the finished cells back in submission order, and render
// them like a local run. Failed cells have no stored result; they are
// reported on stderr and fail the invocation, mirroring the local
// failed-experiment exit path.
func submit(out, errOut io.Writer, client *exp.QueueClient, url string, cells []exp.Experiment, slices int, detach bool, format, workload string, retry time.Duration) error {
	// The retry window is what lets a waiting submitter survive a sweepd
	// restart: the journaled queue comes back still holding the job.
	client.Retry = exp.Backoff{Window: retry}
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
	// Pull every finished cell through the same verified read path the
	// workers published through; order is the submission order, so the
	// rendering is byte-identical to a local run of the same matrix.
	store, err := exp.NewRemoteStore(url, nil)
	if err != nil {
		return err
	}
	store.Retry = exp.Backoff{Window: retry}
	results := make([]exp.Result, 0, len(cells))
	for _, e := range cells {
		if res, ok := store.Load(e.Fingerprint()); ok {
			results = append(results, res)
		}
	}
	switch format {
	case "json":
		if err := exp.WriteJSON(out, results); err != nil {
			return err
		}
	case "csv":
		if err := exp.WriteCSV(out, results); err != nil {
			return err
		}
	default:
		title := fmt.Sprintf("Sweep job %s: %d experiments (%s workload)", st.ID, len(results), workload)
		fmt.Fprintln(out, exp.MatrixTable(title, results))
		fmt.Fprintf(out, "%d experiments, %d computed by the fleet, %d cached, wall time %v\n",
			len(results), final.Computed, final.Cached, wall.Round(time.Millisecond))
	}
	if final.Failed > 0 {
		for _, f := range final.Failures {
			fmt.Fprintf(errOut, "failed: %s: %s\n", f.Name, f.Err)
		}
		return fmt.Errorf("%d of %d cells failed", final.Failed, final.Total)
	}
	return nil
}
