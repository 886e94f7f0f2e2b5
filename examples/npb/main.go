// NPB runs one NAS benchmark skeleton on a simulated grid and prints its
// communication census and cluster-vs-grid timing — a small version of
// what `gridrepro figure10 figure11 figure12 figure13` does.
//
// Both runs flow through the exp engine (the single execution front
// door): the cluster placement is exp.Cluster(np), the grid placement an
// even split across Rennes and Nancy via exp.EvenSplit.
//
//	go run ./examples/npb [-bench CG] [-np 16] [-scale 0.2]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/exp"
	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("npb", flag.ExitOnError)
	bench := fs.String("bench", "CG", "benchmark: EP CG MG LU SP BT IS FT")
	np := fs.Int("np", 16, "rank count (must split evenly across the two grid sites)")
	scale := fs.Float64("scale", 0.2, "fraction of class-B iterations")
	fs.Parse(args) // ExitOnError: a bad flag exits with status 2

	if err := exp.CheckBench(*bench); err != nil {
		return err
	}
	gridTopo, err := exp.EvenSplit(*np, grid5000.Rennes, grid5000.Nancy)
	if err != nil {
		return err
	}
	// NPB always runs at the paper's §4.2 TCP tuning (the study tunes
	// first, then runs the applications).
	experiment := func(topo exp.Topology) exp.Experiment {
		return exp.Experiment{
			Impl:     mpiimpl.GridMPI,
			Tuning:   exp.Tuning{TCP: true},
			Topology: topo,
			Workload: exp.NPBWorkload(*bench, *scale),
		}
	}
	r := exp.NewRunner(0)
	results := r.RunAll([]exp.Experiment{
		experiment(exp.Cluster(*np)),
		experiment(gridTopo),
	})
	for _, res := range results {
		if res.Err != "" {
			return errors.New(res.Err)
		}
	}
	cluster, grid := results[0], results[1]

	fmt.Fprintf(out, "%s (class B skeleton, %d ranks, scale %.2f) with GridMPI:\n\n", *bench, *np, *scale)
	fmt.Fprintf(out, "  %d nodes, one cluster:      %v\n", *np, cluster.Elapsed)
	fmt.Fprintf(out, "  %d+%d nodes across the WAN:   %v\n", *np/2, *np/2, grid.Elapsed)
	fmt.Fprintf(out, "  relative grid performance:  %.2f\n\n", cluster.Elapsed.Seconds()/grid.Elapsed.Seconds())

	c := grid.Census
	fmt.Fprintf(out, "communication census: %d point-to-point messages, %d bytes (%d across the WAN)\n",
		c.P2PSends, c.P2PBytes, c.WANSends)
	for _, sc := range c.Sizes {
		fmt.Fprintf(out, "  %9d B  x %d\n", sc.Size, sc.Count)
	}
	for _, coll := range c.Collectives {
		fmt.Fprintf(out, "  collective %-10s x %d\n", coll.Op, coll.Calls)
	}
	return nil
}
