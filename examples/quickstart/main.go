// Quickstart: measure a pingpong between two clusters of a simulated
// grid — the smallest end-to-end use of the library.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/exp"
	"repro/internal/mpiimpl"
	"repro/internal/perf"
)

func main() { run(os.Stdout) }

func run(out io.Writer) {
	// A 2-rank MPICH2 world across the Rennes–Nancy WAN (one node per
	// site) with stock Linux sysctls.
	res := exp.Run(exp.Experiment{
		Impl:     mpiimpl.MPICH2,
		Topology: exp.Grid(1),
		Workload: exp.PingPongWorkload(perf.PowersOfTwoSizes(1<<10, 4<<20), 50),
	})
	if res.Err != "" {
		panic(res.Err)
	}

	fmt.Fprintln(out, "MPICH2 pingpong across an 11.6 ms WAN, default parameters:")
	for _, p := range res.Points {
		fmt.Fprintf(out, "  %8d B  rtt=%-12v  %7.1f Mbps\n", p.Size, p.MinRTT, p.Mbps)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Note the ceiling around 100-120 Mbps: the default socket buffers")
	fmt.Fprintln(out, "cannot cover the bandwidth-delay product. See examples/tuning for")
	fmt.Fprintln(out, "the fix the paper develops in §4.2.")
}
