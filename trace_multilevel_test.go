package repro

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
)

// multilevelTraceExperiments lock the multilevel collectives' execution
// order: every staged pattern on the 3-site asymmetric layout where
// the two-site grid algorithms give up and the multilevel gateways genuinely
// differ from the flat trees. Sizes straddle the eager/rendezvous and
// striping thresholds so the gateway hops exercise both protocols.
func multilevelTraceExperiments() []exp.Experiment {
	asym := exp.Asym(
		exp.Site(grid5000.Rennes, 2),
		exp.Site(grid5000.Nancy, 1),
		exp.Site(grid5000.Sophia, 1),
	)
	var exps []exp.Experiment
	for _, w := range []exp.Workload{
		exp.PatternWorkload("bcast", 2<<20, 1),
		exp.PatternWorkload("reduce", 256<<10, 2),
		exp.PatternWorkload("allreduce", 256<<10, 2),
		exp.PatternWorkload("gather", 64<<10, 2),
		exp.PatternWorkload("scatter", 64<<10, 2),
		exp.PatternWorkload("allgather", 64<<10, 2),
		exp.PatternWorkload("alltoall", 64<<10, 2),
		exp.PatternWorkload("barrier", 0, 4),
	} {
		exps = append(exps, exp.Experiment{
			Impl:     mpiimpl.GridMPI,
			Tuning:   exp.MultilevelTuning,
			Topology: asym,
			Workload: w,
		})
	}
	return exps
}

// TestMultilevelEventOrderTrace replays the committed (time, seq)
// execution stream of the multilevel collectives. Any change to gateway
// selection, phase tagging or staging order shows up here byte-exactly
// at the first diverging event.
func TestMultilevelEventOrderTrace(t *testing.T) {
	checkGolden(t, "event_order_multilevel.golden", traceExperiments(t, multilevelTraceExperiments()))
}
