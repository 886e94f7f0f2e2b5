package repro

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
)

// canonicalTraceExperiments is the mixed workload of the event-order
// determinism lock: a pingpong, a collective pattern and the ray2mesh
// application, all on a 3-site asymmetric layout. Together they exercise
// every scheduling path of the kernel: timer events, same-instant
// wakeups (Signal, Queue, Mutex, proc transfers), rendezvous handshakes,
// striped/fragmented sends and the self-scheduler's AnySource matching.
func canonicalTraceExperiments() []exp.Experiment {
	asym := exp.Asym(
		exp.Site(grid5000.Rennes, 2),
		exp.Site(grid5000.Nancy, 1),
		exp.Site(grid5000.Sophia, 1),
	)
	return []exp.Experiment{
		{
			Impl:     mpiimpl.MPICH2,
			Tuning:   exp.Tuning{TCP: true},
			Topology: asym,
			Workload: exp.PingPongWorkload([]int{1 << 10, 64 << 10, 1 << 20, 8 << 20}, 3),
		},
		{
			Impl:     mpiimpl.OpenMPI,
			Topology: asym,
			Workload: exp.PatternWorkload("alltoall", 256<<10, 2),
		},
		{
			// MPICH-G2 stripes large WAN messages over parallel flows,
			// covering the multi-flow scheduling paths.
			Impl:     mpiimpl.MPICHG2,
			Tuning:   exp.Tuning{TCP: true, MPI: true},
			Topology: asym,
			Workload: exp.PatternWorkload("bcast", 2<<20, 1),
		},
		{
			Impl:     mpiimpl.GridMPI,
			Tuning:   exp.Tuning{TCP: true},
			Topology: asym,
			Workload: exp.Ray2MeshWorkload(grid5000.Rennes, 0.02),
		},
	}
}

// TestEventOrderTrace replays the committed (time, seq) execution stream
// of the canonical mixed workload. The golden was recorded on the
// pre-fast-path kernel (container/heap of *event, double-rendezvous
// handoff), so any reordering introduced by a kernel optimization —
// including a changed seq assignment — fails this test byte-exactly at
// the first diverging event.
func TestEventOrderTrace(t *testing.T) {
	checkGolden(t, "event_order.golden", traceExperiments(t, canonicalTraceExperiments()))
}
