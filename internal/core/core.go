// Package core is the experiment engine of the reproduction: one
// constructor per table and figure of the paper, each assembling the
// right testbed, TCP stack, implementation profile and measurement
// harness, and returning structured results.
//
// Configurations follow the paper's tuning story:
//
//	default            — stock Linux sysctls, implementation defaults
//	                     (Figures 3 and 5);
//	TCP-tuned          — 4 MB socket buffers + per-implementation buffer
//	                     fixes (Figure 6);
//	fully tuned        — additionally the Table 5 eager/rendezvous
//	                     thresholds (Figure 7).
package core

import (
	"time"

	"repro/internal/exp"
	"repro/internal/mpi"
	"repro/internal/mpiimpl"
	"repro/internal/perf"
)

// Placement says where the two pingpong processes run.
type Placement int

const (
	// Cluster places both processes in Rennes (PR1, PR2 of Figure 2).
	Cluster Placement = iota
	// Grid places them in Rennes and Nancy (PR1, PN1 of Figure 2).
	Grid
)

func (p Placement) String() string {
	if p == Cluster {
		return "cluster"
	}
	return "grid"
}

// Topology maps a placement onto the experiment engine's testbed
// description: both pingpong processes in Rennes, or one in Rennes and
// one in Nancy (Figure 2).
func (p Placement) Topology() exp.Topology {
	if p == Cluster {
		return exp.Cluster(2)
	}
	return exp.Grid(1)
}

// Series is one labeled pingpong curve.
type Series struct {
	Label  string
	Points []perf.Point
}

// Figure is a family of curves, one per implementation.
type Figure struct {
	Name   string
	Title  string
	Series []Series
}

// Get returns the series labeled label, or nil.
func (f Figure) Get(label string) []perf.Point {
	for _, s := range f.Series {
		if s.Label == label {
			return s.Points
		}
	}
	return nil
}

// At returns the bandwidth of the labeled curve at a given size, or -1.
func (f Figure) At(label string, size int) float64 {
	for _, p := range f.Get(label) {
		if p.Size == size {
			return p.Mbps
		}
	}
	return -1
}

// DefaultSizes is the figures' size grid: 1 kB to 64 MB in powers of two
// (the engine's PaperSizes).
func DefaultSizes() []int { return exp.PaperSizes() }

// DefaultReps matches the paper's 200 round trips per size.
const DefaultReps = 200

func pingpongFigure(r *exp.Runner, name, title string, placement Placement, tcpTuned, mpiTuned bool, sizes []int, reps int) Figure {
	sweep := exp.Sweep{
		Impls:      mpiimpl.WithTCP,
		Tunings:    []exp.Tuning{{TCP: tcpTuned, MPI: mpiTuned}},
		Topologies: []exp.Topology{placement.Topology()},
		Workloads:  []exp.Workload{exp.PingPongWorkload(sizes, reps)},
	}
	fig := Figure{Name: name, Title: title}
	for _, res := range r.RunSweep(sweep) {
		if res.Err != "" {
			panic("core: " + name + "/" + res.Exp.Impl + ": " + res.Err)
		}
		fig.Series = append(fig.Series, Series{Label: res.Exp.Impl, Points: res.Points})
	}
	return fig
}

// Figure3 is the grid pingpong with default parameters: every curve is
// strangled below ~120 Mbps by default socket buffers.
func Figure3(r *exp.Runner, reps int) Figure {
	return pingpongFigure(r, "figure3",
		"MPI bandwidth, grid (Rennes-Nancy), default parameters",
		Grid, false, false, DefaultSizes(), reps)
}

// Figure5 is the cluster pingpong with default parameters: everything
// reaches the 940 Mbps TCP goodput, with the eager/rendezvous threshold
// dip around 128 kB.
func Figure5(r *exp.Runner, reps int) Figure {
	return pingpongFigure(r, "figure5",
		"MPI bandwidth, cluster (Rennes), default parameters",
		Cluster, false, false, DefaultSizes(), reps)
}

// Figure6 is the grid pingpong after TCP tuning (4 MB buffers plus the
// per-implementation buffer fixes): ~900 Mbps recovered, threshold dip
// still present except for GridMPI.
func Figure6(r *exp.Runner, reps int) Figure {
	return pingpongFigure(r, "figure6",
		"MPI bandwidth, grid, after TCP tuning",
		Grid, true, false, DefaultSizes(), reps)
}

// Figure7 is the grid pingpong after TCP and MPI tuning: every curve
// matches TCP, with OpenMPI slightly lower on big messages.
func Figure7(r *exp.Runner, reps int) Figure {
	return pingpongFigure(r, "figure7",
		"MPI bandwidth, grid, after TCP tuning and MPI optimizations",
		Grid, true, true, DefaultSizes(), reps)
}

// LatencyRow is one row of Table 4: 1-byte one-way latency in the cluster
// and on the grid, with the overhead over raw TCP.
type LatencyRow struct {
	Impl          string
	Cluster, Grid time.Duration
	OverCluster   time.Duration
	OverGrid      time.Duration
}

// Table4 measures the latency comparison of Table 4. The ten
// (implementation, placement) cells run as one parallel sweep.
func Table4(r *exp.Runner, reps int) []LatencyRow {
	sweep := exp.Sweep{
		Impls:      mpiimpl.WithTCP,
		Tunings:    []exp.Tuning{{}},
		Topologies: []exp.Topology{Cluster.Topology(), Grid.Topology()},
		Workloads:  []exp.Workload{exp.PingPongWorkload([]int{1}, reps)},
	}
	results := r.RunSweep(sweep)
	oneWay := func(i int) time.Duration {
		res := results[i]
		if res.Err != "" {
			panic("core: table4: " + res.Err)
		}
		return res.Points[0].OneWay()
	}
	var rows []LatencyRow
	var tcpCluster, tcpGrid time.Duration
	for i, impl := range mpiimpl.WithTCP {
		c, g := oneWay(2*i), oneWay(2*i+1)
		if impl == mpiimpl.RawTCP {
			tcpCluster, tcpGrid = c, g
		}
		rows = append(rows, LatencyRow{
			Impl:        impl,
			Cluster:     c,
			Grid:        g,
			OverCluster: c - tcpCluster,
			OverGrid:    g - tcpGrid,
		})
	}
	return rows
}

// Trace is one Figure 9 sub-plot: the per-message bandwidth of 1 MB
// pingpongs over time for one implementation.
type Trace struct {
	Label  string
	Points []perf.TracePoint
}

// Figure9 reproduces the slow-start study: 200 messages of 1 MB on the
// fully tuned grid (the study follows the §4.2 tuning), per-message
// bandwidth against time, for raw TCP and the four implementations.
func Figure9(r *exp.Runner, count int) []Trace {
	sweep := exp.Sweep{
		Impls:      mpiimpl.WithTCP,
		Tunings:    []exp.Tuning{{TCP: true, MPI: true}},
		Topologies: []exp.Topology{Grid.Topology()},
		Workloads:  []exp.Workload{exp.TraceWorkload(1<<20, count)},
	}
	var traces []Trace
	for _, res := range r.RunSweep(sweep) {
		if res.Err != "" {
			panic("core: figure9/" + res.Exp.Impl + ": " + res.Err)
		}
		traces = append(traces, Trace{Label: res.Exp.Impl, Points: res.Trace})
	}
	return traces
}

// ThresholdRow is one row of Table 5: the default eager/rendezvous
// threshold and the swept ideal for cluster and grid.
type ThresholdRow struct {
	Impl     string
	Original string
	Cluster  string
	Grid     string
}

// thresholdCandidates are the swept eager/rendezvous switch points.
var thresholdCandidates = []int{128 << 10, 1 << 20, 8 << 20, 32 << 20, 65 << 20}

// Table5 sweeps the eager/rendezvous threshold per implementation and
// placement and reports the value minimizing total pingpong time for
// messages up to 64 MB (receives pre-posted, as the paper's note says).
// OpenMPI's btl_tcp_eager_limit is capped at 32 MB, so its sweep stops
// there. The selection is independent of the runner's worker count.
func Table5(runner *exp.Runner, reps int) []ThresholdRow {
	sweepSizes := []int{256 << 10, 1 << 20, 8 << 20, 48 << 20}

	// Expand every (impl, placement, candidate) cell into one experiment.
	var exps []exp.Experiment
	for _, impl := range mpiimpl.All {
		if mpiimpl.Profile(impl).EagerThreshold == mpi.Infinite {
			continue
		}
		for _, placement := range []Placement{Cluster, Grid} {
			for _, thr := range thresholdCandidates {
				if impl == mpiimpl.OpenMPI && thr > 32<<20 {
					continue
				}
				exps = append(exps, exp.Experiment{
					Impl:           impl,
					Tuning:         exp.Tuning{TCP: true},
					Topology:       placement.Topology(),
					Workload:       exp.PingPongWorkload(sweepSizes, reps),
					EagerThreshold: thr,
				})
			}
		}
	}
	results := runner.RunAll(exps)

	// Pick the best threshold per (impl, placement): minimum total
	// pingpong time, ties to the larger threshold — rendezvous never beats
	// eager here, so the ideal is the largest value available. Candidates
	// expand in ascending order, making <= the tie-break.
	type cell struct {
		impl      string
		placement string
	}
	bestThr := make(map[cell]int)
	bestTime := make(map[cell]time.Duration)
	for _, res := range results {
		if res.Err != "" {
			panic("core: table5: " + res.Err)
		}
		var total time.Duration
		for _, p := range res.Points {
			total += p.MinRTT
		}
		c := cell{res.Exp.Impl, res.Exp.Topology.String()}
		if bestTime[c] == 0 || total <= bestTime[c] {
			bestTime[c], bestThr[c] = total, res.Exp.EagerThreshold
		}
	}

	rows := make([]ThresholdRow, 0, 4)
	for _, impl := range mpiimpl.All {
		base := mpiimpl.Profile(impl)
		if base.EagerThreshold == mpi.Infinite {
			rows = append(rows, ThresholdRow{Impl: impl, Original: "inf", Cluster: "-", Grid: "-"})
			continue
		}
		rows = append(rows, ThresholdRow{
			Impl:     impl,
			Original: formatSize(base.EagerThreshold),
			Cluster:  formatSize(bestThr[cell{impl, Cluster.Topology().String()}]),
			Grid:     formatSize(bestThr[cell{impl, Grid.Topology().String()}]),
		})
	}
	return rows
}

func formatSize(n int) string {
	switch {
	case n >= 1<<20:
		return itoa(n>>20) + " MB"
	case n >= 1<<10:
		return itoa(n>>10) + " kB"
	default:
		return itoa(n) + " B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
