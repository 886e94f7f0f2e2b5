package repro

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/grid5000"
	"repro/internal/mpi"
	"repro/internal/mpiimpl"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// collectiveTraceProfile is one collective strategy, labelled for the
// golden's case names.
type collectiveTraceProfile struct {
	name string
	prof mpi.Profile
}

// collectiveTraceProfiles are mpi.Reference() under every collective
// strategy: flat, GridMPI's grid algorithms, multilevel, and both.
func collectiveTraceProfiles() []collectiveTraceProfile {
	ref := mpi.Reference()
	// GridMPI's profile reset to the reference in every field but its
	// collective selection, so this file names no selector field.
	grid := mpiimpl.Profile(mpiimpl.GridMPI)
	grid.OverheadLocal, grid.OverheadWAN = ref.OverheadLocal, ref.OverheadWAN
	grid.EagerThreshold, grid.Buffers = ref.EagerThreshold, ref.Buffers
	ml, gridML := ref, grid
	ml.Multilevel, gridML.Multilevel = true, true
	return []collectiveTraceProfile{{"flat", ref}, {"grid", grid}, {"multilevel", ml}, {"grid+multilevel", gridML}}
}

// collectiveTraceLayouts are 1–4 sites with node counts misaligned with
// powers of two, so flat trees straddle site boundaries.
var collectiveTraceLayouts = []struct {
	name   string
	layout []netsim.Site
}{
	{"1site", []netsim.Site{grid5000.Cluster(grid5000.Rennes, 5)}},
	{"2site", []netsim.Site{grid5000.Cluster(grid5000.Rennes, 5), grid5000.Cluster(grid5000.Nancy, 3)}},
	{"3site", []netsim.Site{grid5000.Cluster(grid5000.Rennes, 3), grid5000.Cluster(grid5000.Nancy, 2), grid5000.Cluster(grid5000.Sophia, 2)}},
	{"4site", []netsim.Site{grid5000.Cluster(grid5000.Rennes, 3), grid5000.Cluster(grid5000.Nancy, 2), grid5000.Cluster(grid5000.Sophia, 2), grid5000.Cluster(grid5000.Toulouse, 1)}},
}

// vsizes is a per-rank size vector for Alltoallv: some ranks get
// nothing, the rest one or two halves of n.
func vsizes(P, shift, n int) []int {
	sizes := make([]int, P)
	for i := range sizes {
		sizes[i] = n * ((i + shift) % 3) / 2
	}
	return sizes
}

// collectiveTraceOps are every collective; rooted ones take the root.
var collectiveTraceOps = []struct {
	name   string
	rooted bool
	call   func(r *mpi.Rank, root, n int)
}{
	{"bcast", true, func(r *mpi.Rank, root, n int) { r.Bcast(root, n) }},
	{"reduce", true, func(r *mpi.Rank, root, n int) { r.Reduce(root, n) }},
	{"gather", true, func(r *mpi.Rank, root, n int) { r.Gather(root, n) }},
	{"scatter", true, func(r *mpi.Rank, root, n int) { r.Scatter(root, n) }},
	{"allreduce", false, func(r *mpi.Rank, _, n int) { r.Allreduce(n) }},
	{"allgather", false, func(r *mpi.Rank, _, n int) { r.Allgather(n) }},
	{"alltoall", false, func(r *mpi.Rank, _, n int) { r.Alltoall(n) }},
	{"alltoallv", false, func(r *mpi.Rank, _, n int) { r.Alltoallv(vsizes(r.Size(), r.Rank(), n)) }},
	{"barrier", false, func(r *mpi.Rank, _, _ int) { r.Barrier() }},
}

// TestCollectiveEventOrderTrace locks every collective under every
// strategy by the sha256 of its executed (time, seq) stream: profiles ×
// 1–4-site layouts × operations × {2 KiB, 64 KiB, 1 MiB} × roots
// {0, 1, P-1}, one world per case, one "case hash elapsed" line each.
// Root 1 sits inside the first site without being its gateway, and
// root P-1 is the last rank of the last site.
//
// GridMPI's two-site allreduce of 32 KiB and more is left out on the
// 5+3 layout: earlier revisions deadlocked there, because the site phase
// of a non-power-of-two site ran world-wide trees, so the golden cannot
// compare it across revisions. TestGridAllreduceUnevenSites in
// internal/mpi covers it.
func TestCollectiveEventOrderTrace(t *testing.T) {
	var out strings.Builder
	for _, tp := range collectiveTraceProfiles() {
		for _, lt := range collectiveTraceLayouts {
			net := netsim.New(lt.layout, grid5000.OneWay)
			var hosts []*netsim.Host
			for _, sc := range lt.layout {
				hosts = append(hosts, net.SiteHosts(sc.Name)...)
			}
			P := len(hosts)
			for _, op := range collectiveTraceOps {
				roots := []int{0}
				if op.rooted {
					roots = append(roots, 1, P-1)
				}
				for _, n := range []int{2 << 10, 64 << 10, 1 << 20} {
					for _, root := range roots {
						if tp.name == "grid" && lt.name == "2site" && op.name == "allreduce" && n >= 32<<10 {
							continue
						}
						name := fmt.Sprintf("%s/%s/%s/%d/root%d", tp.name, lt.name, op.name, n, root)
						h := sha256.New()
						var elapsed int64
						traceEvents(h, func() {
							k := sim.New(1)
							defer k.Close()
							w := mpi.NewWorld(k, net, tcpsim.Tuned4MB(), tp.prof, hosts)
							d, err := w.Run(func(r *mpi.Rank) { op.call(r, root, n) })
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							elapsed = int64(d)
						})
						fmt.Fprintf(&out, "%s %x %d\n", name, h.Sum(nil), elapsed)
					}
				}
			}
		}
	}
	checkGolden(t, "event_order_collectives.golden", []byte(out.String()))
}
