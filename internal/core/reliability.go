package core

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/tables"
)

// ReliabilityCell is one implementation × tuning cell of the reliability
// matrix: the paper's pingpong measured on the healthy grid and again under
// a fault plan, with the degraded-mode transport counters of the faulted
// run.
type ReliabilityCell struct {
	Impl        string
	Tuning      exp.Tuning
	HealthyMbps float64
	FaultedMbps float64
	// Retransmits counts rounds lost to injected loss, Stalls the
	// link-down episodes, StallSec the total time flows spent parked on a
	// dead link.
	Retransmits float64
	Stalls      float64
	StallSec    float64
	// Failed marks a faulted run that never completed (for example a link
	// taken down and never brought back): the cell reports the failure
	// instead of a bandwidth.
	Failed bool
}

// ReliabilityMatrix re-runs the paper's implementation × tuning pingpong
// grid (the Figure 3/6/7 matrix) under a fault plan and pairs each cell
// with its healthy baseline — what the paper's comparison looks like on the
// grid real users get: dead uplinks, loss and jitter. The healthy cells
// share fingerprints with the regular figures, so a warm cache serves them
// without recomputation.
func ReliabilityMatrix(r *exp.Runner, reps int, plan *exp.FaultPlan) []ReliabilityCell {
	healthy := exp.PaperMatrix(reps).Experiments()
	faulted := make([]exp.Experiment, len(healthy))
	for i, e := range healthy {
		e.Faults = plan
		faulted[i] = e
	}
	// A faulted cell may fail: it reports the failure instead.
	hres := runAll(r, "reliability baseline", healthy)
	fres := r.RunAll(faulted)
	cells := make([]ReliabilityCell, len(healthy))
	for i := range healthy {
		h, f := hres[i], fres[i]
		cells[i] = ReliabilityCell{
			Impl:        h.Exp.Impl,
			Tuning:      h.Exp.Tuning,
			HealthyMbps: h.MaxMbps(),
			FaultedMbps: f.MaxMbps(),
			Retransmits: f.Metrics["fault_retransmits"],
			Stalls:      f.Metrics["fault_link_stalls"],
			StallSec:    f.Metrics["fault_stall_s"],
			Failed:      f.Err != "" || f.DNF,
		}
	}
	return cells
}

// RenderReliabilityMatrix formats the reliability matrix.
func RenderReliabilityMatrix(plan *exp.FaultPlan, cells []ReliabilityCell) string {
	headers := []string{"impl", "tuning", "healthy (Mbps)", "faulted (Mbps)", "kept", "retrans", "stalls", "stall (s)"}
	var rows [][]string
	for _, c := range cells {
		faulted, kept := "FAIL", "-"
		if !c.Failed {
			faulted = fmt.Sprintf("%.1f", c.FaultedMbps)
			if c.HealthyMbps > 0 {
				kept = fmt.Sprintf("%.0f%%", 100*c.FaultedMbps/c.HealthyMbps)
			}
		}
		rows = append(rows, []string{
			c.Impl,
			c.Tuning.String(),
			fmt.Sprintf("%.1f", c.HealthyMbps),
			faulted,
			kept,
			fmt.Sprintf("%.0f", c.Retransmits),
			fmt.Sprintf("%.0f", c.Stalls),
			fmt.Sprintf("%.2f", c.StallSec),
		})
	}
	return fmt.Sprintf("Reliability: the paper's matrix under faults [%s]\n", plan) +
		tables.Render(headers, rows)
}
