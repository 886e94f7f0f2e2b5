package core

import (
	"time"

	"repro/internal/exp"
	"repro/internal/mpiimpl"
	"repro/internal/npb"
)

// DNFBudgetFactor is the job time budget relative to the MPICH2 reference:
// runs exceeding it are reported DNF, like the paper's MPICH-Madeleine
// BT/SP grid runs.
const DNFBudgetFactor = 2

// NASFigure holds one NPB comparison figure: for each benchmark, a
// relative performance value per implementation (higher is better), with
// DNF marks.
type NASFigure struct {
	Name       string
	Title      string
	Benchmarks []string
	// Values[bench][impl] is the relative performance; missing means DNF.
	Values map[string]map[string]float64
	DNF    map[string]map[string]bool
}

func newNASFigure(name, title string) NASFigure {
	return NASFigure{
		Name:       name,
		Title:      title,
		Benchmarks: npb.Names,
		Values:     make(map[string]map[string]float64),
		DNF:        make(map[string]map[string]bool),
	}
}

func (f *NASFigure) set(bench, impl string, v float64, dnf bool) {
	if f.Values[bench] == nil {
		f.Values[bench] = make(map[string]float64)
		f.DNF[bench] = make(map[string]bool)
	}
	if dnf {
		f.DNF[bench][impl] = true
		return
	}
	f.Values[bench][impl] = v
}

// At returns the value and DNF flag for one cell.
func (f NASFigure) At(bench, impl string) (float64, bool) {
	if f.DNF[bench][impl] {
		return 0, true
	}
	return f.Values[bench][impl], false
}

// npbExperiment runs one benchmark on one topology, always at the §4.2
// TCP tuning level (the study tunes first, then runs the applications).
// The topology carries the placement story the old npb.Run enum used to:
// exp.Cluster(np) is the single-cluster run, exp.Grid(np/2) the paper's
// even WAN split, and any per-site layout works the same way.
func npbExperiment(bench, impl string, topo exp.Topology, scale float64, timeout time.Duration) exp.Experiment {
	wl := exp.NPBWorkload(bench, scale)
	wl.Timeout = timeout
	return exp.Experiment{
		Impl:     impl,
		Tuning:   exp.Tuning{TCP: true},
		Topology: topo,
		Workload: wl,
	}
}

// implComparison runs every implementation on every benchmark at one
// topology and reports times relative to MPICH2 (T_ref/T_impl). The
// MPICH2 references run first (their elapsed time defines every other
// implementation's DNF budget), then all remaining cells fan out across
// the runner's pool.
func implComparison(r *exp.Runner, name, title string, topo exp.Topology, scale float64) NASFigure {
	fig := newNASFigure(name, title)
	refExps := make([]exp.Experiment, len(npb.Names))
	for i, bench := range npb.Names {
		refExps[i] = npbExperiment(bench, mpiimpl.MPICH2, topo, scale, 0)
	}
	refs := make(map[string]exp.Result, len(npb.Names))
	for i, res := range runAll(r, name, refExps) {
		refs[npb.Names[i]] = res
		fig.set(npb.Names[i], mpiimpl.MPICH2, 1.0, res.DNF)
	}

	var exps []exp.Experiment
	for _, bench := range npb.Names {
		for _, impl := range mpiimpl.All {
			if impl == mpiimpl.MPICH2 {
				continue
			}
			exps = append(exps, npbExperiment(bench, impl, topo, scale,
				refs[bench].Elapsed*DNFBudgetFactor))
		}
	}
	for _, res := range runAll(r, name, exps) {
		bench := res.Exp.Workload.Bench
		ref := refs[bench]
		fig.set(bench, res.Exp.Impl, ref.Elapsed.Seconds()/res.Elapsed.Seconds(), res.DNF)
	}
	return fig
}

// Figure10 compares the four implementations on 8+8 nodes across the WAN,
// relative to MPICH2 (the paper's Figure 10; MPICH-Madeleine DNFs on BT
// and SP).
func Figure10(r *exp.Runner, scale float64) NASFigure {
	return implComparison(r, "figure10",
		"NPB class B, 8-8 nodes between two clusters, relative to MPICH2",
		exp.Grid(8), scale)
}

// Figure11 is the same comparison on 2+2 nodes.
func Figure11(r *exp.Runner, scale float64) NASFigure {
	return implComparison(r, "figure11",
		"NPB class B, 2-2 nodes between two clusters, relative to MPICH2",
		exp.Grid(2), scale)
}

// gridVsCluster computes per implementation T(cluster with npCluster
// nodes) / T(8+8 grid): Figure 12 (npCluster=16) and Figure 13
// (npCluster=4). Cluster references run first and bound the grid runs'
// DNF budgets.
func gridVsCluster(r *exp.Runner, name, title string, npCluster int, scale float64) NASFigure {
	fig := newNASFigure(name, title)
	type cell struct{ bench, impl string }
	var clExps []exp.Experiment
	var cells []cell
	for _, bench := range npb.Names {
		for _, impl := range mpiimpl.All {
			clExps = append(clExps, npbExperiment(bench, impl, exp.Cluster(npCluster), scale, 0))
			cells = append(cells, cell{bench, impl})
		}
	}
	clusters := make(map[cell]exp.Result, len(cells))
	grExps := make([]exp.Experiment, len(cells))
	for i, res := range runAll(r, name, clExps) {
		clusters[cells[i]] = res
		// The outer float64 rounds the product, so no architecture fuses
		// the multiplications into a multiply-add (see tcpsim's Flow.bdp).
		budget := time.Duration(float64(float64(res.Elapsed)*4) * DNFBudgetFactor)
		grExps[i] = npbExperiment(cells[i].bench, cells[i].impl, exp.Grid(8), scale, budget)
	}
	for i, res := range runAll(r, name, grExps) {
		cl := clusters[cells[i]]
		fig.set(cells[i].bench, cells[i].impl,
			cl.Elapsed.Seconds()/res.Elapsed.Seconds(), cl.DNF || res.DNF)
	}
	return fig
}

// Figure12 compares 16 nodes on one cluster against 8+8 across the WAN,
// per implementation (values ≤ 1: the grid always costs something).
func Figure12(r *exp.Runner, scale float64) NASFigure {
	return gridVsCluster(r, "figure12",
		"NPB class B: T(16 nodes, one cluster) / T(8-8 nodes, two clusters)",
		16, scale)
}

// Figure13 compares 4 local nodes against 16 grid nodes: the speedup of
// quadrupling resources across a WAN (ideal 4).
func Figure13(r *exp.Runner, scale float64) NASFigure {
	return gridVsCluster(r, "figure13",
		"NPB class B: T(4 nodes, one cluster) / T(8-8 nodes, two clusters)",
		4, scale)
}

// CensusRow summarises one benchmark's communication for Table 2.
type CensusRow struct {
	Bench      string
	Type       string // "point-to-point" or "collective"
	P2PSends   int64
	P2PBytes   int64
	SmallestB  int64
	LargestB   int64
	Collective map[string]int64
}

// Table2 regenerates the NPB communication census by running each
// benchmark on a 16-rank cluster and reading the message statistics.
func Table2(r *exp.Runner, scale float64) []CensusRow {
	exps := make([]exp.Experiment, len(npb.Names))
	for i, bench := range npb.Names {
		exps[i] = npbExperiment(bench, mpiimpl.MPICH2, exp.Cluster(16), scale, 0)
	}
	rows := make([]CensusRow, 0, len(npb.Names))
	for i, res := range runAll(r, "table2", exps) {
		c := res.Census
		row := CensusRow{
			Bench:      npb.Names[i],
			Type:       "point-to-point",
			P2PSends:   c.P2PSends,
			P2PBytes:   c.P2PBytes,
			Collective: make(map[string]int64),
		}
		if len(c.Sizes) > 0 {
			row.SmallestB = c.Sizes[0].Size
			row.LargestB = c.Sizes[len(c.Sizes)-1].Size
		}
		for _, coll := range c.Collectives {
			row.Collective[coll.Op] = coll.Calls
		}
		if c.P2PSends == 0 {
			row.Type = "collective"
		}
		rows = append(rows, row)
	}
	return rows
}

// Table1 returns the implementation feature matrix.
func Table1() []mpiimpl.Feature { return mpiimpl.Features() }
