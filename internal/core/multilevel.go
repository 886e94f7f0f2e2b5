package core

import (
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
	"repro/internal/tables"
)

// MultilevelCell is one row of the flat-vs-multilevel extension table: a
// collective pattern on an asymmetric layout, fully tuned, with and
// without the topology-aware multilevel algorithms.
type MultilevelCell struct {
	Topo    exp.Topology
	Pattern string
	Flat    time.Duration
	ML      time.Duration
}

// multilevelLayouts are the asymmetric testbeds of the comparison: the
// two-site split the paper measures plus the 3- and 4-site layouts on
// which the two-site grid algorithms fall back to flat trees — the gap the
// multilevel tuning level exists to close.
func multilevelLayouts() []exp.Topology {
	return []exp.Topology{
		exp.Asym(exp.Site(grid5000.Rennes, 8), exp.Site(grid5000.Nancy, 4)),
		exp.Asym(exp.Site(grid5000.Rennes, 4), exp.Site(grid5000.Nancy, 2), exp.Site(grid5000.Sophia, 2)),
		exp.Asym(exp.Site(grid5000.Rennes, 4), exp.Site(grid5000.Nancy, 2), exp.Site(grid5000.Sophia, 1), exp.Site(grid5000.Toulouse, 1)),
	}
}

// MultilevelTable measures GridMPI fully tuned against the same profile
// with Tuning.Multilevel on, for size-byte collectives across the
// asymmetric layouts. The cells are ordinary cached experiments.
func MultilevelTable(r *exp.Runner, size, iters int) []MultilevelCell {
	patterns := []string{"bcast", "reduce", "allreduce", "gather", "scatter", "allgather", "alltoall", "barrier"}
	var exps []exp.Experiment
	var cells []MultilevelCell
	for _, topo := range multilevelLayouts() {
		for _, p := range patterns {
			for _, tun := range []exp.Tuning{{TCP: true, MPI: true}, exp.MultilevelTuning} {
				exps = append(exps, exp.Experiment{
					Impl:     mpiimpl.GridMPI,
					Tuning:   tun,
					Topology: topo,
					Workload: exp.PatternWorkload(p, size, iters),
				})
			}
			cells = append(cells, MultilevelCell{Topo: topo, Pattern: p})
		}
	}
	results := r.RunAll(exps)
	for i := range cells {
		flat, ml := results[2*i], results[2*i+1]
		if flat.Err != "" {
			panic("core: multilevel table: " + flat.Err)
		}
		if ml.Err != "" {
			panic("core: multilevel table: " + ml.Err)
		}
		cells[i].Flat = flat.Elapsed
		cells[i].ML = ml.Elapsed
	}
	return cells
}

// RenderMultilevelTable formats the comparison, one row per layout ×
// collective with the multilevel speedup.
func RenderMultilevelTable(cells []MultilevelCell, size int) string {
	headers := []string{"layout", "collective", "fully-tuned", "multilevel", "speedup"}
	var rows [][]string
	for _, c := range cells {
		rows = append(rows, []string{
			c.Topo.String(),
			c.Pattern,
			fmt.Sprintf("%.1fms", float64(c.Flat)/float64(time.Millisecond)),
			fmt.Sprintf("%.1fms", float64(c.ML)/float64(time.Millisecond)),
			fmt.Sprintf("%.2fx", float64(c.Flat)/float64(c.ML)),
		})
	}
	title := fmt.Sprintf("Extension: flat vs multilevel collectives at %s (GridMPI, fully tuned)", tables.Size(int64(size)))
	return title + "\n" + tables.Render(headers, rows)
}
