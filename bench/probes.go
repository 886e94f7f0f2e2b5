package main

import (
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/mpi"
	"repro/internal/mpiimpl"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// probeReps is how many times each probe loop runs; the metric is the
// median per-operation time over the repetitions.
const probeReps = 5

// probe is a fixed-input loop over one public function.
type probe struct {
	name string // metric name of the per-operation time
	unit string // "ns" or "us"
	ops  int    // operations per loop
	// run executes the loop once, ops operations, and returns the kernel
	// events it executed (0 when the probe does not count them).
	run func(ops int) uint64
	// events, when set, names the exact events-per-operation metric.
	events string
}

func (p probe) measure(tr *tracer) []metric {
	scale := map[string]float64{"ns": 1, "us": 1e3}[p.unit]
	per := make([]float64, probeReps)
	var events uint64
	start := time.Now()
	for i := range per {
		t0 := time.Now()
		events = p.run(p.ops)
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(p.ops) / scale
	}
	tr.span("probe", p.name, 0, start, time.Since(start), map[string]any{"ops": p.ops, "reps": probeReps})
	out := []metric{sampled(p.name, p.unit, per)}
	if p.events != "" {
		out = append(out, exact(p.events, "count", float64(events)/float64(p.ops), 1))
	}
	return out
}

// runProbes times every probe once. They run after the workloads, on
// fixed inputs, one at a time.
func runProbes(tr *tracer) ([]metric, error) {
	probes, err := buildProbes()
	if err != nil {
		return nil, err
	}
	tr.process("probes")
	var out []metric
	for _, p := range probes {
		out = append(out, p.measure(tr)...)
	}
	return out, nil
}

func nop() {}

func nopJob(*sim.Proc, any) {}

// stack is a built network with an implementation's profile and TCP
// configuration: what exp.Run assembles before it creates a world.
type stack struct {
	net   *netsim.Network
	hosts []*netsim.Host
	prof  mpi.Profile
	tcp   tcpsim.Config
}

func newStack(topo exp.Topology, impl string, tuned, multilevel bool) (stack, error) {
	net, err := topo.Build()
	if err != nil {
		return stack{}, err
	}
	prof, tcp := mpiimpl.Configure(impl, tuned, tuned)
	prof.Multilevel = multilevel
	return stack{net: net, hosts: topo.RankHosts(net), prof: prof, tcp: tcp}, nil
}

// world runs body on a fresh kernel and world over the stack and returns
// the events executed.
func (st stack) world(body func(*mpi.Rank)) uint64 {
	k := sim.New(1)
	defer k.Close()
	w := mpi.NewWorld(k, st.net, st.tcp, st.prof, st.hosts)
	if _, err := w.Run(body); err != nil {
		panic("probe world failed: " + err.Error()) // fixed inputs: a bug, not an input error
	}
	return k.Executed
}

// transfer sends n bytes over one flow on a fresh kernel and returns the
// events executed.
func (st stack) transfer(path *netsim.Path, n int64) uint64 {
	k := sim.New(1)
	defer k.Close()
	f := tcpsim.NewFlow(k, path, st.tcp, st.prof.Buffers)
	k.Go("send", func(p *sim.Proc) { f.Send(p, n, nil) })
	k.Run()
	return k.Executed
}

// collectiveOps are the eight collectives, each as one call.
var collectiveOps = []struct {
	name string
	call func(r *mpi.Rank, n int)
}{
	{"bcast", func(r *mpi.Rank, n int) { r.Bcast(0, n) }},
	{"reduce", func(r *mpi.Rank, n int) { r.Reduce(0, n) }},
	{"allreduce", func(r *mpi.Rank, n int) { r.Allreduce(n) }},
	{"gather", func(r *mpi.Rank, n int) { r.Gather(0, n) }},
	{"scatter", func(r *mpi.Rank, n int) { r.Scatter(0, n) }},
	{"allgather", func(r *mpi.Rank, n int) { r.Allgather(n) }},
	{"alltoall", func(r *mpi.Rank, n int) { r.Alltoall(n) }},
	{"barrier", func(r *mpi.Rank, _ int) { r.Barrier() }},
}

func buildProbes() ([]probe, error) {
	flat, err := newStack(threeSites, mpiimpl.MPICH2, true, false)
	if err != nil {
		return nil, err
	}
	multilevel, err := newStack(threeSites, mpiimpl.MPICH2, true, true)
	if err != nil {
		return nil, err
	}
	grid, err := newStack(exp.Grid(8), mpiimpl.GridMPI, true, false)
	if err != nil {
		return nil, err
	}
	wan, err := newStack(exp.Grid(1), mpiimpl.MPICH2, false, false)
	if err != nil {
		return nil, err
	}
	rennes := flat.net.SiteHosts("rennes")
	intraPath := flat.net.Path(rennes[0], rennes[1])
	wanPath := flat.net.Path(rennes[0], flat.net.SiteHosts("nancy")[0])
	sophiaPath := flat.net.Path(rennes[0], flat.net.SiteHosts("sophia")[0])

	pingpong := exp.Experiment{
		Impl: mpiimpl.MPICH2, Tuning: exp.Tuning{TCP: true, MPI: true},
		Topology: exp.Grid(1), Workload: exp.PingPongWorkload(exp.PaperSizes(), 2),
	}
	fixed := exp.Run(pingpong)
	if fixed.Err != "" {
		return nil, fmt.Errorf("probe input %s: %s", pingpong.Name(), fixed.Err)
	}
	warm := exp.NewRunner(1)
	warm.Run(pingpong)

	probes := []probe{
		{name: "sim.probe.event_ns", unit: "ns", ops: 200_000, run: func(n int) uint64 {
			k := sim.New(1)
			defer k.Close()
			for range n {
				k.After(time.Microsecond, nop)
				k.Run()
			}
			return 0
		}},
		{name: "sim.probe.switch_ns", unit: "ns", ops: 200_000, run: func(n int) uint64 {
			k := sim.New(1)
			defer k.Close()
			ping, pong := k.NewSignal(), k.NewSignal()
			k.Go("ping", func(p *sim.Proc) {
				for range n / 2 {
					ping.Fire()
					pong.Wait(p)
					pong.Reset()
				}
			})
			k.Go("pong", func(p *sim.Proc) {
				for range n / 2 {
					ping.Wait(p)
					ping.Reset()
					pong.Fire()
				}
			})
			k.Run()
			return 0
		}},
		{name: "sim.probe.spawn_ns", unit: "ns", ops: 100_000, run: func(n int) uint64 {
			k := sim.New(1)
			defer k.Close()
			// Batches let finished coroutines return to the pool, as the
			// per-message protocol processes do.
			for range n / 100 {
				for range 100 {
					k.GoJob("job", nopJob, nil)
				}
				k.Run()
			}
			return 0
		}},
		{name: "netsim.probe.build_us", unit: "us", ops: 500, run: func(n int) uint64 {
			for range n {
				if _, err := threeSites.Build(); err != nil {
					panic(err)
				}
			}
			return 0
		}},
		{name: "netsim.probe.path_ns", unit: "ns", ops: 1_000_000, run: func(n int) uint64 {
			for range n {
				sophiaPath.Acquire()
				sophiaPath.Release()
			}
			return 0
		}},
		{name: "tcpsim.probe.send1m_intra_us", unit: "us", ops: 100, run: func(n int) uint64 {
			for range n {
				flat.transfer(intraPath, 1<<20)
			}
			return 0
		}},
		{name: "tcpsim.probe.send1m_wan_us", unit: "us", ops: 50, events: "tcpsim.probe.events_1m_wan", run: func(n int) uint64 {
			var events uint64
			for range n {
				events += flat.transfer(wanPath, 1<<20)
			}
			return events
		}},
		{name: "tcpsim.probe.send64m_wan_us", unit: "us", ops: 5, run: func(n int) uint64 {
			for range n {
				flat.transfer(wanPath, 64<<20)
			}
			return 0
		}},
		{name: "mpi.probe.world_us", unit: "us", ops: 500, run: func(n int) uint64 {
			for range n {
				k := sim.New(1)
				mpi.NewWorld(k, flat.net, flat.tcp, flat.prof, flat.hosts)
				k.Close()
			}
			return 0
		}},
		messageProbe("mpi.probe.eager_us", wan, 1<<10, 2000),
		messageProbe("mpi.probe.rndv_us", wan, 1<<20, 100),
		{name: "exp.probe.marshal_us", unit: "us", ops: 2000, run: func(n int) uint64 {
			for range n {
				exp.MarshalResults([]exp.Result{fixed})
			}
			return 0
		}},
		{name: "exp.probe.mem_hit_us", unit: "us", ops: 20_000, run: func(n int) uint64 {
			for range n {
				warm.Run(pingpong)
			}
			return 0
		}},
	}
	for _, op := range collectiveOps {
		probes = append(probes,
			collectiveProbe(op.name, "flat", flat, op.call),
			collectiveProbe(op.name, "multilevel", multilevel, op.call))
		if op.name == "bcast" || op.name == "allreduce" {
			probes = append(probes, collectiveProbe(op.name, "grid", grid, op.call))
		}
	}
	return probes, nil
}

// messageProbe times point-to-point messages of one size from rank 0 to
// rank 1, ops per world.
func messageProbe(name string, st stack, size, ops int) probe {
	return probe{name: name, unit: "us", ops: ops, run: func(n int) uint64 {
		return st.world(func(r *mpi.Rank) {
			for i := range n {
				if r.Rank() == 0 {
					r.Send(1, i, size)
				} else {
					r.Recv(0, i)
				}
			}
		})
	}}
}

// collectiveProbe times one collective at 64 kB, three calls per world.
func collectiveProbe(op, algo string, st stack, call func(*mpi.Rank, int)) probe {
	name := "mpi.probe." + op + "." + algo
	return probe{name: name + "_us", unit: "us", ops: 3, events: name + "_events", run: func(n int) uint64 {
		return st.world(func(r *mpi.Rank) {
			for range n {
				call(r, 64<<10)
			}
		})
	}}
}
