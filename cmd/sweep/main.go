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
// -guidelines appends a Hunold-style self-consistency pass: the
// collective patterns run per impl × tuning × topology through the same
// cached runner, and any configuration where a specialized collective is
// slower than a composition of general ones (Allgather vs Gather+Bcast,
// Reduce vs Allreduce, ...) is reported as a violation; violations exit
// nonzero, linter-style.
//
// Results persist to a local directory (-cache) and/or a shared
// cmd/cached server (-cache-remote); -shard i/n partitions a matrix
// across machines that all point at one server, and -push/-pull sync an
// existing cache directory with a server one-shot:
//
//	sweep -shard 1/4 -cache-remote http://stately:8077
//	sweep -cache ~/.cache/sweep -cache-remote http://stately:8077 -push
//
// With a cmd/sweepd control plane the partitioning is automatic:
// -submit posts the matrix as a job and waits for the fleet, -worker
// turns the invocation into a pull-based fleet worker that leases
// cells, computes them, and publishes results through the server's
// verified store. Workers can be killed and added at any time.
//
//	sweep -submit http://stately:8078 -workload pattern:alltoall
//	sweep -worker http://stately:8078 -workers 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/mpiimpl"
	"repro/internal/npb"
	"repro/internal/perf"
	"repro/internal/profiling"
	"repro/internal/ray2mesh"
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

func parseImpls(s string) ([]string, error) {
	switch s {
	case "all":
		return mpiimpl.WithTCP, nil
	case "mpi":
		return mpiimpl.All, nil
	}
	var impls []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := exp.CheckImpl(name); err != nil {
			return nil, err
		}
		impls = append(impls, name)
	}
	if len(impls) == 0 {
		return nil, fmt.Errorf("empty -impls")
	}
	return impls, nil
}

func parseTunings(s string) ([]exp.Tuning, error) {
	var tunings []exp.Tuning
	for _, tok := range strings.Split(s, ",") {
		switch strings.TrimSpace(tok) {
		case "default":
			tunings = append(tunings, exp.Tuning{})
		case "tcp":
			tunings = append(tunings, exp.Tuning{TCP: true})
		case "full":
			tunings = append(tunings, exp.Tuning{TCP: true, MPI: true})
		case "multilevel":
			tunings = append(tunings, exp.MultilevelTuning)
		case "":
		default:
			return nil, fmt.Errorf("unknown tuning %q (want default, tcp, full, multilevel)", tok)
		}
	}
	if len(tunings) == 0 {
		return nil, fmt.Errorf("empty -tunings")
	}
	return tunings, nil
}

func parseTopos(s string, nodes int, placement exp.Placement) ([]exp.Topology, error) {
	var topos []exp.Topology
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		var topo exp.Topology
		switch tok {
		case "grid":
			topo = exp.Grid(nodes)
		case "cluster":
			topo = exp.Cluster(2 * nodes)
		case "":
			continue
		default:
			// An explicit per-site layout, e.g. "rennes:8+nancy:4+sophia:4".
			var err error
			if topo, err = exp.ParseLayout(tok); err != nil {
				return nil, fmt.Errorf("unknown topology %q (want grid, cluster, or a site:nodes layout): %w", tok, err)
			}
		}
		topo.Placement = placement
		if err := topo.Validate(); err != nil {
			return nil, err
		}
		topos = append(topos, topo)
	}
	if len(topos) == 0 {
		return nil, fmt.Errorf("empty -topo")
	}
	return topos, nil
}

func parseWorkloads(s string, sizes []int, reps, size, iters int, scale float64) ([]exp.Workload, error) {
	kind, arg, _ := strings.Cut(s, ":")
	switch kind {
	case "pingpong":
		return []exp.Workload{exp.PingPongWorkload(sizes, reps)}, nil
	case "trace":
		return []exp.Workload{exp.TraceWorkload(size, reps)}, nil
	case "npb":
		benches := npb.Names
		if arg != "" && arg != "all" {
			benches = strings.Split(arg, ",")
		}
		var wls []exp.Workload
		for _, b := range benches {
			b = strings.TrimSpace(b)
			if err := exp.CheckBench(b); err != nil {
				return nil, err
			}
			wls = append(wls, exp.NPBWorkload(b, scale))
		}
		return wls, nil
	case "pattern":
		if arg == "" {
			return nil, fmt.Errorf("-workload pattern needs a name, e.g. pattern:alltoall")
		}
		if err := exp.CheckPattern(arg); err != nil {
			return nil, err
		}
		return []exp.Workload{exp.PatternWorkload(arg, size, iters)}, nil
	case "ray2mesh":
		masters := ray2mesh.Sites
		if arg != "" && arg != "all" {
			masters = strings.Split(arg, ",")
		}
		var wls []exp.Workload
		for _, m := range masters {
			m = strings.TrimSpace(m)
			if err := exp.CheckSite(m); err != nil {
				return nil, err
			}
			wls = append(wls, exp.Ray2MeshWorkload(m, scale))
		}
		return wls, nil
	}
	return nil, fmt.Errorf("unknown -workload %q", s)
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(errOut)
	implsStr := fs.String("impls", "all", `implementations: "all" (TCP + the four MPI), "mpi" (the four), or a comma list`)
	tuningsStr := fs.String("tunings", "default,tcp,full", "tuning levels to cross (default, tcp, full, multilevel)")
	topoStr := fs.String("topo", "grid", `topologies to cross: grid, cluster, or per-site layouts like "rennes:8+nancy:4"`)
	placementStr := fs.String("placement", "", "rank placement for every topology: block, round-robin, strided:<k>, master:<site> (default block)")
	nodes := fs.Int("nodes", 1, "nodes per site (grid) / half the cluster size")
	workloadStr := fs.String("workload", "pingpong", "workload: pingpong, trace, npb[:BENCH|:all], pattern:NAME, ray2mesh[:SITE|:all]")
	reps := fs.Int("reps", 50, "pingpong round trips per size / trace message count")
	sizeStr := fs.String("size", "1M", "message size for pattern/trace workloads (k/M/G suffixes)")
	iters := fs.Int("iters", 10, "pattern repetitions")
	scale := fs.Float64("scale", 0.1, "NPB / ray2mesh workload scale (1.0 = the paper's full size)")
	maxSizeStr := fs.String("max-size", "64M", "largest pingpong message size")
	workers := fs.Int("workers", 0, "worker pool size (0 = one per CPU)")
	cacheDir := fs.String("cache", "", "persistent result-cache directory (empty = in-memory only)")
	remoteURL := fs.String("cache-remote", "", "remote result-cache server URL (a cmd/cached instance); with -cache, the directory becomes its local read-through/write-behind tier")
	pushFlag := fs.Bool("push", false, "instead of sweeping, upload every -cache entry the -cache-remote server is missing, then exit")
	pullFlag := fs.Bool("pull", false, "instead of sweeping, download every -cache-remote entry missing from -cache, then exit (with -push too: pull first, then push)")
	faultsStr := fs.String("faults", "", `seeded fault plan applied to every experiment: semicolon-separated clauses "seed=N", "<time> down|up site=S|host=H", "<time> loss <p> [site=|host=]", "<time> jitter <dur> [site=|host=]" — e.g. "seed=7; 100ms down site=rennes; 300ms up site=rennes"`)
	shardStr := fs.String("shard", "", `run only shard i of n ("i/n"): a deterministic fingerprint-keyed partition of the matrix, so shards on different machines can share one -cache-remote server (or merge their -cache directories by plain file copy)`)
	submitURL := fs.String("submit", "", "submit the matrix to the cmd/sweepd control plane at this URL and wait for the fleet, rendering results like a local run")
	detach := fs.Bool("detach", false, "with -submit: print the job ID and return immediately instead of waiting")
	slicesFlag := fs.Int("slices", 0, "with -submit: lease slices to partition the job into (0 = server default)")
	workerURL := fs.String("worker", "", "run as a pull-based fleet worker against the cmd/sweepd control plane at this URL (matrix flags are ignored; the server decides what runs)")
	workerID := fs.String("worker-id", "", "worker name in leases and liveness reports (default host:pid)")
	workerPoll := fs.Duration("worker-poll", 0, "with -worker: wait between empty lease polls (0 = the interval the server advertises)")
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
	// decides what runs — but -workers sizes the local pool and -cache
	// gives the worker a warm local tier under the server store.
	if *workerURL != "" {
		if *submitURL != "" {
			return fmt.Errorf("-worker and -submit are exclusive: one invocation is either fleet muscle or the submitting client")
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
		runner, remote, err := exp.NewRunnerCache(*workers, *cacheDir, *workerURL)
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
		fmt.Fprintf(errOut, "worker %s: polling %s (%d-worker pool)\n", id, *workerURL, runner.Workers())
		rep := client.Work(exp.WorkerConfig{
			ID:       id,
			Runner:   runner,
			Poll:     *workerPoll,
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
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(errOut, err)
		}
	}()
	if *nodes < 1 {
		return fmt.Errorf("-nodes must be ≥ 1, got %d", *nodes)
	}
	size, err := exp.ParseSize(*sizeStr)
	if err != nil {
		return fmt.Errorf("bad -size: %w", err)
	}
	maxSize, err := exp.ParseSize(*maxSizeStr)
	if err != nil {
		return fmt.Errorf("bad -max-size: %w", err)
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
	impls, err := parseImpls(*implsStr)
	if err != nil {
		return err
	}
	tunings, err := parseTunings(*tuningsStr)
	if err != nil {
		return err
	}
	// ray2mesh defaults to its four-site Figure 8 testbed. An explicitly
	// chosen -topo is honored; only the untouched default collapses to
	// the canonical testbed (under the -placement), so matrix labels and
	// cache fingerprints always reflect the run that actually happens.
	topoSet := false
	fs.Visit(func(f *flag.Flag) { topoSet = topoSet || f.Name == "topo" })
	var topos []exp.Topology
	if strings.HasPrefix(*workloadStr, "ray2mesh") && !topoSet {
		topo := exp.Ray2MeshTopology()
		topo.Placement = exp.Placement(*placementStr)
		topos, err = []exp.Topology{topo}, topo.Validate()
	} else {
		topos, err = parseTopos(*topoStr, *nodes, exp.Placement(*placementStr))
	}
	if err != nil {
		return err
	}
	sizes := perf.PowersOfTwoSizes(1<<10, maxSize)
	workloads, err := parseWorkloads(*workloadStr, sizes, *reps, size, *iters, *scale)
	if err != nil {
		return err
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
	sweep := exp.Sweep{Impls: impls, Tunings: tunings, Topologies: topos, Workloads: workloads}
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
		if !shard.IsAll() {
			return fmt.Errorf("-shard does not combine with -submit: the control plane partitions the matrix itself")
		}
		if *guidelines {
			return fmt.Errorf("-guidelines is a local post-processor; drop -submit")
		}
		return submit(out, errOut, *submitURL, all, *slicesFlag, *detach, *format, *workloadStr, *retryWindow)
	}
	exps := shard.Select(all)
	runner, remote, err := exp.NewRunnerCache(*workers, *cacheDir, *remoteURL)
	if err != nil {
		return err
	}
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
		title := fmt.Sprintf("Sweep: %d experiments (%s workload)", len(results), *workloadStr)
		if !shard.IsAll() {
			title = fmt.Sprintf("Sweep shard %s: %d of %d experiments (%s workload)",
				shard, len(results), sweep.Size(), *workloadStr)
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
		suite := exp.GuidelineSuite(impls, tunings, topos, exp.DefaultGuidelines, size, *iters)
		gres := runner.RunAll(suite)
		results = append(results, gres...)
		guidelineViolations = exp.WriteGuidelineReport(out, gres,
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
		rep, err := exp.EvictDir(*cacheDir, evict)
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

// submit is the -submit mode: post the matrix as one job, wait for the
// fleet (progress on stderr), pull the finished cells back in submission
// order, and render them like a local run. Failed cells have no stored
// result; they are reported on stderr and fail the invocation, mirroring
// the local failed-experiment exit path.
func submit(out, errOut io.Writer, url string, cells []exp.Experiment, slices int, detach bool, format, workload string, retry time.Duration) error {
	client, err := exp.NewQueueClient(url)
	if err != nil {
		return err
	}
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
