// Tuning walks through the paper's §4.2 story on one implementation:
// default configuration, TCP buffer tuning, and eager/rendezvous
// threshold tuning, measuring a 16 MB WAN transfer at each step.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/exp"
	"repro/internal/mpiimpl"
)

func measure(tcpTuned, mpiTuned bool) (float64, float64) {
	res := exp.Run(exp.Experiment{
		Impl:     mpiimpl.MPICH2,
		Tuning:   exp.Tuning{TCP: tcpTuned, MPI: mpiTuned},
		Topology: exp.Grid(1),
		Workload: exp.PingPongWorkload([]int{512 << 10, 16 << 20}, 50),
	})
	if res.Err != "" {
		panic(res.Err)
	}
	return res.Points[0].Mbps, res.Points[1].Mbps
}

func main() { run(os.Stdout) }

func run(out io.Writer) {
	fmt.Fprintln(out, "MPICH2 on the Rennes-Nancy WAN (11.6 ms RTT), 512 kB and 16 MB messages:")
	fmt.Fprintln(out)

	at512k, at16M := measure(false, false)
	fmt.Fprintf(out, "1. defaults:                  512 kB: %6.1f Mbps   16 MB: %6.1f Mbps\n", at512k, at16M)
	fmt.Fprintln(out, "   (windows capped by rmem_max/tcp_rmem: the paper's Figure 3)")

	at512k, at16M = measure(true, false)
	fmt.Fprintf(out, "2. + 4 MB socket buffers:     512 kB: %6.1f Mbps   16 MB: %6.1f Mbps\n", at512k, at16M)
	fmt.Fprintln(out, "   (line rate recovered for big messages, but 512 kB still pays a")
	fmt.Fprintln(out, "    rendezvous round trip: the Figure 6 threshold artifact)")

	at512k, at16M = measure(true, true)
	fmt.Fprintf(out, "3. + eager threshold 65 MB:   512 kB: %6.1f Mbps   16 MB: %6.1f Mbps\n", at512k, at16M)
	fmt.Fprintln(out, "   (the fully tuned Figure 7 configuration)")
}
