package repro

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
)

// faultTracePlans are three fault plans on the 3-site layout: a site
// outage that starts before the first message, loss plus jitter on one
// site's uplink, and a host whose NICs go down mid-run.
var faultTracePlans = []string{
	"seed=3; 0s down site=nancy; 40ms up site=nancy",
	"seed=5; 0s loss 0.05; 10ms jitter 2ms site=sophia",
	"seed=7; 5ms down host=rennes-2; 60ms up host=rennes-2",
}

// TestFaultEventOrderTrace locks the executed (time, seq) stream of a
// collective run under each fault plan. Fault plans take links down by
// name and flows stall, evict and resume on them, so the golden pins
// which links every path crosses and when flows meet them.
func TestFaultEventOrderTrace(t *testing.T) {
	asym := exp.Asym(
		exp.Site(grid5000.Rennes, 2),
		exp.Site(grid5000.Nancy, 1),
		exp.Site(grid5000.Sophia, 1),
	)
	var exps []exp.Experiment
	for _, spec := range faultTracePlans {
		plan, err := exp.ParseFaultPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, exp.Experiment{
			Impl:     mpiimpl.MPICH2,
			Tuning:   exp.Tuning{TCP: true},
			Topology: asym,
			Workload: exp.PatternWorkload("alltoall", 64<<10, 2),
			Faults:   plan,
		})
	}
	checkGolden(t, "event_order_faults.golden", traceExperiments(t, exps))
}
