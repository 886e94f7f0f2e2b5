package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// isolates one mechanism of the model (pacing, congestion-control flavour,
// grid-aware collectives, parallel streams, socket buffers) and reports
// the performance difference it is responsible for.

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

// BenchmarkAblationPacing isolates GridMPI's TCP pacing: time for the
// per-message bandwidth of 1 MB WAN pingpongs to reach 450 Mbps, paced vs
// unpaced, all else equal.
func BenchmarkAblationPacing(b *testing.B) {
	ramp := func(paced bool) time.Duration {
		prof := mpi.Reference()
		prof.EagerThreshold = mpi.Infinite
		prof.Pacing = paced
		k := sim.New(1)
		defer k.Close()
		net := grid5000.RennesNancy(1)
		hosts := []*netsim.Host{net.Host("rennes-1"), net.Host("nancy-1")}
		w := mpi.NewWorld(k, net, tcpsim.Tuned4MB(), prof, hosts)
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

// BenchmarkAblationCongestionControl compares BIC and Reno window growth
// on the tuned WAN (the model's congestion-avoidance flavour).
func BenchmarkAblationCongestionControl(b *testing.B) {
	transfer := func(cc string) time.Duration {
		k, net := sim.New(1), grid5000.RennesNancy(1)
		defer k.Close()
		cfg := tcpsim.Tuned4MB()
		cfg.Congestion = cc
		f := tcpsim.NewFlow(k, net.Path(net.Host("rennes-1"), net.Host("nancy-1")), cfg, tcpsim.Autotune)
		var done sim.Time
		k.Go("s", func(p *sim.Proc) {
			f.Send(p, 64<<20, func() { done = k.Now() })
		})
		k.Run()
		return done
	}
	var bic, reno time.Duration
	for i := 0; i < b.N; i++ {
		bic, reno = transfer("bic"), transfer("reno")
	}
	b.ReportMetric(bic.Seconds(), "bic-64M-s")
	b.ReportMetric(reno.Seconds(), "reno-64M-s")
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
		net := grid5000.RennesNancy(8)
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
// (rendezvous) vs the tuned 65 MB threshold (eager), as a two-point
// threshold axis on the experiment engine.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	sweep := exp.Sweep{
		Impls:           []string{mpiimpl.MPICH2},
		Tunings:         []exp.Tuning{{TCP: true}},
		Topologies:      []exp.Topology{exp.Grid(1)},
		Workloads:       []exp.Workload{exp.PingPongWorkload([]int{512 << 10}, 20)},
		EagerThresholds: []int{256 << 10, 65 << 20},
	}
	var rndv, eager time.Duration
	for i := 0; i < b.N; i++ {
		results := exp.NewRunner(0).RunSweep(sweep)
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
