//go:build !race

// The race detector's instrumentation allocates, so the allocation
// locks in this file build without -race.

package exp

import (
	"fmt"
	"testing"
)

// TestTopologyBuildAllocsGrowLinearly locks "build only what a run
// uses": Build creates hosts, NICs and uplinks, never the host-pair
// routes, so four times the hosts may cost at most four times the
// allocations. A full mesh of routes grows with the square of the hosts.
func TestTopologyBuildAllocsGrowLinearly(t *testing.T) {
	allocs := func(hosts int) float64 {
		topo, err := ParseLayout(fmt.Sprintf("rennes:%d+nancy:%d+sophia:%d", hosts/2, hosts/4, hosts/4))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := topo.Build(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(64)
	if large > 4*small {
		t.Errorf("Build allocates %.0f times at 64 hosts, %.1f× its %.0f at 16; want at most 4×", large, large/small, small)
	}
}

// TestPaperMatrixAllocs locks the allocations of cmd/sweep's default,
// the paper's 5-implementation × 3-tuning pingpong matrix, end to end
// through a fresh runner: at most 10% over the 2,513 per sweep that
// commit b34d794 recorded (BENCH_PR24.json, "after").
func TestPaperMatrixAllocs(t *testing.T) {
	const baseline = 2513
	allocs := testing.AllocsPerRun(3, func() {
		for _, r := range NewRunner(0).RunSweep(PaperMatrix(50)) {
			if r.Err != "" {
				t.Fatal(r.Err)
			}
		}
	})
	if limit := baseline * 1.10; allocs > limit {
		t.Errorf("the paper matrix allocates %.0f times per sweep, want at most %.0f (10%% over %d)", allocs, limit, baseline)
	}
}
