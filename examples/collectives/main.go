// Collectives compares a topology-unaware broadcast (MPICH2's binomial
// tree) with GridMPI's grid-aware van de Geijn broadcast on 8+8 nodes
// across a WAN — the mechanism behind FT's large speedup in Figure 10.
//
//	go run ./examples/collectives
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/exp"
	"repro/internal/mpiimpl"
)

func bcastTime(impl string, n int) time.Duration {
	res := exp.Run(exp.Experiment{
		Impl:     impl,
		Tuning:   exp.Tuning{TCP: true},
		Topology: exp.Grid(8),
		Workload: exp.PatternWorkload("bcast", n, 5), // repeat so TCP windows open
	})
	if res.Err != "" || res.DNF {
		panic(fmt.Sprintf("%s: err=%q dnf=%v", res.Exp.Name(), res.Err, res.DNF))
	}
	return res.Elapsed / 5
}

func main() { run(os.Stdout) }

func run(out io.Writer) {
	fmt.Fprintln(out, "Broadcast on 8+8 nodes across an 11.6 ms WAN (mean of 5):")
	fmt.Fprintln(out)
	for _, n := range []int{64 << 10, 1 << 20, 8 << 20, 32 << 20} {
		mp := bcastTime(mpiimpl.MPICH2, n)
		gm := bcastTime(mpiimpl.GridMPI, n)
		fmt.Fprintf(out, "  %8d kB: MPICH2 (binomial) %10v   GridMPI (grid-aware) %10v   speedup %.1fx\n",
			n>>10, mp.Round(time.Microsecond), gm.Round(time.Microsecond),
			float64(mp)/float64(gm))
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "GridMPI scatters the payload inside the root cluster, ships the chunks")
	fmt.Fprintln(out, "over parallel node-to-node WAN connections, and allgathers locally.")
}
