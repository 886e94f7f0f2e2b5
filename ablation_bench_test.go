package repro

// Ablation benchmarks for the model's design choices: each isolates one
// mechanism (pacing, grid-aware collectives, parallel streams, socket
// buffers) and reports the performance difference it is responsible for.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/grid5000"
	"repro/internal/mpi"
	"repro/internal/mpiimpl"
	"repro/internal/netsim"
	"repro/internal/npb"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// rennesNancy is the Figure 2 testbed with n nodes per site.
func rennesNancy(n int) *netsim.Network {
	return netsim.New([]netsim.Site{grid5000.Cluster(grid5000.Rennes, n), grid5000.Cluster(grid5000.Nancy, n)}, grid5000.OneWay)
}

// BenchmarkAblationPacing isolates GridMPI's TCP pacing: time for the
// per-message bandwidth of 1 MB WAN pingpongs to reach 450 Mbps, paced vs
// unpaced, all else equal.
func BenchmarkAblationPacing(b *testing.B) {
	ramp := func(paced bool) time.Duration {
		prof := mpi.Reference()
		prof.EagerThreshold = mpi.Infinite
		tcp := tcpsim.Tuned4MB()
		tcp.Pacing = paced
		k := sim.New(1)
		defer k.Close()
		net := rennesNancy(1)
		hosts := []*netsim.Host{net.Host("rennes-1"), net.Host("nancy-1")}
		w := mpi.NewWorld(k, net, tcp, prof, hosts)
		trace, err := perf.BandwidthTrace(w, 1<<20, 200)
		if err != nil {
			b.Fatal(err)
		}
		return perf.TimeTo(trace, 450)
	}
	var paced, unpaced time.Duration
	for i := 0; i < b.N; i++ {
		paced, unpaced = ramp(true), ramp(false)
	}
	b.ReportMetric(paced.Seconds(), "paced-ramp-s")
	b.ReportMetric(unpaced.Seconds(), "unpaced-ramp-s")
}

// BenchmarkAblationGridCollectives isolates GridMPI's grid-aware
// broadcast/allreduce: FT time on the 8+8 grid with and without them,
// pacing held constant.
func BenchmarkAblationGridCollectives(b *testing.B) {
	run := func(gridColl bool) time.Duration {
		prof, tcp := mpiimpl.Configure(mpiimpl.GridMPI, true, false)
		prof.GridCollectives = gridColl
		k := sim.New(1)
		defer k.Close()
		net := rennesNancy(8)
		var hosts []*netsim.Host
		hosts = append(hosts, net.SiteHosts(grid5000.Rennes)...)
		hosts = append(hosts, net.SiteHosts(grid5000.Nancy)...)
		w := mpi.NewWorld(k, net, tcp, prof, hosts)
		spec := npb.Get("FT")
		elapsed, err := w.Run(func(r *mpi.Rank) {
			spec.Run(r, npb.Params{NP: 16, Scale: 0.2})
		})
		if err != nil {
			b.Fatal(err)
		}
		return elapsed
	}
	var with, without time.Duration
	for i := 0; i < b.N; i++ {
		with, without = run(true), run(false)
	}
	b.ReportMetric(with.Seconds(), "grid-coll-FT-s")
	b.ReportMetric(without.Seconds(), "binomial-FT-s")
}

// BenchmarkExtensionParallelStreams measures the MPICH-G2 future-work
// experiment: striped large messages on an untuned WAN.
func BenchmarkExtensionParallelStreams(b *testing.B) {
	var pts []core.StreamsPoint
	for i := 0; i < b.N; i++ {
		pts = core.ExtensionMPICHG2(exp.NewRunner(0), 10)
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.MPICHG2Mbps/last.MPICH2Mbps, "stream-gain-64M")
}

// BenchmarkAblationBufferSweep reports the window-limit crossover of
// §4.2.1 as a sweep over explicit socket-buffer sizes.
func BenchmarkAblationBufferSweep(b *testing.B) {
	var pts []core.BufferPoint
	for i := 0; i < b.N; i++ {
		pts = core.BufferSweep(exp.NewRunner(0), 10)
	}
	b.ReportMetric(pts[0].Mbps, "64kB-Mbps")
	b.ReportMetric(pts[len(pts)-1].Mbps, "8MB-Mbps")
}

// BenchmarkAblationEagerThreshold isolates the §4.2.2 tuning on MPICH2:
// 512 kB WAN message latency with the default 256 kB threshold
// (rendezvous) vs the tuned 65 MB threshold (eager), as two experiments
// that differ only in their eager threshold.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	rndvExp := exp.Experiment{
		Impl:     mpiimpl.MPICH2,
		Tuning:   exp.Tuning{TCP: true},
		Topology: exp.Grid(1),
		Workload: exp.PingPongWorkload([]int{512 << 10}, 20),
	}
	eagerExp := rndvExp
	rndvExp.EagerThreshold, eagerExp.EagerThreshold = 256<<10, 65<<20
	var rndv, eager time.Duration
	for i := 0; i < b.N; i++ {
		results := exp.NewRunner(0).RunAll([]exp.Experiment{rndvExp, eagerExp})
		for _, r := range results {
			if r.Err != "" {
				b.Fatal(r.Err)
			}
		}
		rndv, eager = results[0].Points[0].OneWay(), results[1].Points[0].OneWay()
	}
	b.ReportMetric(rndv.Seconds()*1e3, "rndv-512k-ms")
	b.ReportMetric(eager.Seconds()*1e3, "eager-512k-ms")
}
