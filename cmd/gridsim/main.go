// Command gridsim runs one ad-hoc experiment on the simulated grid and
// reports its timing plus the communication census. It names the
// experiment with cmd/sweep's axis flags (exp.Axes), one value per axis,
// so its cell is sweep's cell: the same fingerprint, and the same entry
// in a shared -cache directory.
//
// Examples:
//
//	gridsim -impls GridMPI -nodes 8 -workload pattern:alltoall -size 2M -iters 5
//	gridsim -impls MPICH2 -topo rennes:8 -workload pattern:ring -size 64k -tunings mpi
//	gridsim -impls GridMPI -tunings multilevel -topo rennes:8+nancy:4+sophia:4 -workload pattern:gather
//	gridsim -impls MPICH-G2 -nodes 2 -workload pattern:pingpong -size 64M -json
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

func run(args []string, out, errOut io.Writer) (err error) {
	fs := flag.NewFlagSet("gridsim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	axes := exp.Axes{Impls: mpiimpl.GridMPI, Tunings: "full", Nodes: 4, Workload: "pattern:alltoall",
		Reps: 50, Size: "1M", Iters: 10, Scale: 0.1, MaxSize: "64M"}
	axes.Register(fs)
	budget := fs.Duration("timeout", 0, "virtual-time budget of a pattern, npb or ray2mesh run; past it the run reports DNF (0 = the workload's own: one virtual hour, none for ray2mesh; negative = none)")
	cacheDir := fs.String("cache", "", "persistent result-cache directory; repeated invocations serve hits from it")
	asJSON := fs.Bool("json", false, "emit the full experiment result as JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse // already reported by the FlagSet
	}

	sweep, err := axes.Sweep()
	if err != nil {
		return err
	}
	if n := sweep.Size(); n != 1 {
		return fmt.Errorf("these axes name %d experiments and gridsim runs one: give each axis one value", n)
	}
	e := sweep.Experiments()[0]
	if *budget != 0 {
		if k := e.Workload.Kind; k != exp.KindPattern && k != exp.KindNPB && k != exp.KindRay2Mesh {
			return fmt.Errorf("-timeout applies to pattern, npb and ray2mesh workloads, not %s", k)
		}
		e.Workload.Timeout = *budget
	}
	sess, err := exp.RunFlags{Workers: 1, Cache: *cacheDir}.Open()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close(errOut)) }()
	res := sess.Runner.Run(e)
	if res.Err != "" {
		return fmt.Errorf("%w: %s", errRunFailed, res.Err)
	}
	if *asJSON {
		if err := exp.WriteJSON(out, []exp.Result{res}); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(out, e.Name())
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
	}
	if res.DNF {
		// An unfinished run is not a successful measurement: exit 1 so
		// scripts don't mistake the truncated census for a result.
		return fmt.Errorf("%w: DNF, budget %v exceeded", errRunFailed, e.Workload.Budget())
	}
	return nil
}
