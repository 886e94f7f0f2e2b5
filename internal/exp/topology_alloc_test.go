//go:build !race

package exp

import (
	"fmt"
	"testing"
)

// TestTopologyBuildAllocsGrowLinearly locks "build only what a run
// uses": Build creates hosts, NICs and uplinks, never the host-pair
// routes, so four times the hosts may cost at most four times the
// allocations. A full mesh of routes grows with the square of the hosts.
// The race detector's instrumentation allocates, so this file builds
// without -race.
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
