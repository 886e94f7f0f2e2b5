package repro

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/grid5000"
	"repro/internal/mpi"
	"repro/internal/mpiimpl"
)

// ray2meshFabricTraceExperiments are the application and the §5 fabric
// pingpong on the testbeds they run on: ray2mesh from every master of
// the Figure 8 testbed, on the zero topology, on a 3-site asymmetric
// layout and on the smallest two-site one; the fabric under Madeleine
// across gateway overheads and under two other implementations.
func ray2meshFabricTraceExperiments() []exp.Experiment {
	var exps []exp.Experiment
	for _, master := range []string{grid5000.Nancy, grid5000.Rennes, grid5000.Sophia, grid5000.Toulouse} {
		exps = append(exps, exp.Experiment{
			Impl:     mpiimpl.MPICH2,
			Tuning:   exp.Tuning{TCP: true},
			Topology: exp.Ray2MeshTopology(),
			Workload: exp.Ray2MeshWorkload(master, 0.02),
		})
	}
	asym := exp.Asym(exp.Site(grid5000.Rennes, 3), exp.Site(grid5000.Nancy, 2), exp.Site(grid5000.Sophia, 1))
	pair := exp.Asym(exp.Site(grid5000.Rennes, 1), exp.Site(grid5000.Nancy, 1))
	exps = append(exps,
		exp.Experiment{Impl: mpiimpl.MPICH2, Tuning: exp.Tuning{TCP: true}, Workload: exp.Ray2MeshWorkload(grid5000.Rennes, 0.01)},
		exp.Experiment{Impl: mpiimpl.GridMPI, Tuning: exp.Tuning{TCP: true, MPI: true}, Topology: asym, Workload: exp.Ray2MeshWorkload(grid5000.Nancy, 0.02)},
		exp.Experiment{Impl: mpiimpl.MPICH2, Tuning: exp.Tuning{TCP: true}, Topology: pair, Workload: exp.Ray2MeshWorkload(grid5000.Rennes, 0.001)},
	)
	fabric := func(gateway time.Duration) exp.Workload {
		return exp.FabricWorkload(3*time.Microsecond, 250e6, time.Microsecond, gateway, []int{1, 64 << 10, 1 << 20}, 3)
	}
	for _, gw := range []time.Duration{0, 10 * time.Microsecond, 160 * time.Microsecond} {
		exps = append(exps, exp.Experiment{Impl: mpiimpl.Madeleine, EagerThreshold: mpi.Infinite, Workload: fabric(gw)})
	}
	exps = append(exps,
		exp.Experiment{Impl: mpiimpl.MPICH2, Workload: fabric(10 * time.Microsecond)},
		exp.Experiment{Impl: mpiimpl.GridMPI, Workload: fabric(0)},
	)
	return exps
}

// TestRay2MeshFabricEventOrderTrace locks the application and the fabric
// pingpong by one line per experiment: its name, the sha256 of its
// executed (time, seq) stream, and the sha256 of its serialized Result.
// The golden was recorded while both workloads still built their own
// kernel, network and world, so it proves that running them through the
// shared execution path moved no event and no result byte.
func TestRay2MeshFabricEventOrderTrace(t *testing.T) {
	var out strings.Builder
	for _, e := range ray2meshFabricTraceExperiments() {
		events := sha256.New()
		var res exp.Result
		traceEvents(events, func() { res = exp.Run(e) })
		if res.Err != "" || res.DNF {
			t.Fatalf("%s: err=%q dnf=%v", e.Name(), res.Err, res.DNF)
		}
		fmt.Fprintf(&out, "%s %x %x\n", e.Name(), events.Sum(nil), sha256.Sum256(exp.MarshalResults([]exp.Result{res})))
	}
	checkGolden(t, "event_order_ray2mesh_fabric.golden", []byte(out.String()))
}
