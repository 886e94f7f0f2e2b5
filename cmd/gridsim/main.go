// Command gridsim is a general driver for ad-hoc experiments on the
// simulated grid: pick an implementation, a tuning level, a topology and
// a communication pattern, and get timing plus the communication census.
// It is a thin front-end over the internal/exp experiment engine.
//
// Examples:
//
//	gridsim -impl GridMPI -nodes 8 -grid -pattern alltoall -size 2M -iters 5
//	gridsim -impl MPICH2 -nodes 4 -pattern ring -size 64k -tcp-tuned=false
//	gridsim -impl MPICH-G2 -nodes 2 -grid -pattern pingpong -size 64M -json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/exp"
	"repro/internal/mpiimpl"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintln(os.Stderr, err)
		}
		// Usage mistakes exit 2; failures of the simulation itself exit 1
		// (the historical distinction scripts rely on).
		if errors.Is(err, errRunFailed) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// errFlagParse marks a parse failure the FlagSet has already reported on
// stderr; main must not print it a second time.
var errFlagParse = errors.New("flag parsing failed")

// errRunFailed marks a failure of the simulation run, as opposed to a
// bad invocation.
var errRunFailed = errors.New("run failed")

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("gridsim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	impl := fs.String("impl", mpiimpl.GridMPI, "implementation: MPICH2, GridMPI, MPICH-Madeleine, OpenMPI, MPICH-G2, TCP")
	nodes := fs.Int("nodes", 4, "nodes per site")
	grid := fs.Bool("grid", true, "span Rennes and Nancy (otherwise one cluster)")
	sitesStr := fs.String("sites", "", `explicit per-site layout, e.g. "rennes:8+nancy:4+sophia:4" (overrides -nodes/-grid)`)
	placementStr := fs.String("placement", "", "rank placement: block, round-robin, strided:<k>, master:<site> (default block)")
	pattern := fs.String("pattern", "alltoall", "pattern: pingpong, ring, alltoall, bcast, allreduce, barrier")
	sizeStr := fs.String("size", "1M", "message size (supports k/M/G suffixes)")
	iters := fs.Int("iters", 10, "pattern repetitions")
	tcpTuned := fs.Bool("tcp-tuned", true, "apply the paper's §4.2.1 TCP tuning")
	mpiTuned := fs.Bool("mpi-tuned", true, "apply the paper's §4.2.2 threshold tuning")
	budget := fs.Duration("timeout", 0, "virtual-time budget; past it the run reports DNF (0 = unlimited)")
	cacheDir := fs.String("cache", "", "persistent result-cache directory; repeated invocations serve hits from it")
	asJSON := fs.Bool("json", false, "emit the full experiment result as JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse // already reported by the FlagSet
	}

	size, err := exp.ParseSize(*sizeStr)
	if err != nil {
		return fmt.Errorf("bad -size: %w", err)
	}
	if err := exp.CheckImpl(*impl); err != nil {
		return err
	}
	if *nodes < 1 {
		return fmt.Errorf("-nodes must be ≥ 1, got %d", *nodes)
	}
	if err := exp.CheckPattern(*pattern); err != nil {
		return err
	}

	topo := exp.Cluster(*nodes)
	if *grid {
		topo = exp.Grid(*nodes)
	}
	if *sitesStr != "" {
		var err error
		if topo, err = exp.ParseLayout(*sitesStr); err != nil {
			return fmt.Errorf("bad -sites: %w", err)
		}
	}
	topo.Placement = exp.Placement(*placementStr)
	if err := topo.Validate(); err != nil {
		return err
	}
	wl := exp.PatternWorkload(*pattern, size, *iters)
	wl.Timeout = *budget
	if *budget == 0 {
		wl.Timeout = -1 // gridsim's historical behavior: no budget
	}
	e := exp.Experiment{
		Impl:     *impl,
		Tuning:   exp.Tuning{TCP: *tcpTuned, MPI: *mpiTuned},
		Topology: topo,
		Workload: wl,
	}
	runner, _, err := exp.NewRunnerCache(1, *cacheDir, "")
	if err != nil {
		return err
	}
	res := runner.Run(e)
	if res.Err != "" {
		return fmt.Errorf("%w: %s", errRunFailed, res.Err)
	}

	if *asJSON {
		if err := exp.WriteJSON(out, []exp.Result{res}); err != nil {
			return err
		}
		if res.DNF {
			return fmt.Errorf("%w: DNF, budget %v exceeded", errRunFailed, *budget)
		}
		return nil
	}
	fmt.Fprintf(out, "%s, %d ranks (%s), pattern=%s size=%d iters=%d\n",
		*impl, topo.NP(), map[bool]string{true: "8.7-19.9 ms WAN", false: "one cluster"}[len(topo.Layout) > 1],
		*pattern, size, *iters)
	if res.DNF {
		fmt.Fprintf(out, "DNF: run exceeded its virtual-time budget\n")
	}
	fmt.Fprintf(out, "elapsed (virtual): %v\n", res.Elapsed)
	c := res.Census
	fmt.Fprintf(out, "census: %d p2p messages (%d bytes, %d across the WAN), rendezvous %d, unexpected %d\n",
		c.P2PSends, c.P2PBytes, c.WANSends, c.Rendezvous, c.Unexpected)
	for _, coll := range c.Collectives {
		fmt.Fprintf(out, "  collective %-12s x %d\n", coll.Op, coll.Calls)
	}
	if res.DNF {
		// An unfinished run is not a successful measurement: exit 1 so
		// scripts don't mistake the truncated census for a result.
		return fmt.Errorf("%w: DNF, budget %v exceeded", errRunFailed, *budget)
	}
	return nil
}
