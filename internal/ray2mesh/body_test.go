package ray2mesh

import (
	"testing"

	"repro/internal/grid5000"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// TestTerminatesBelowOneChunkPerSlave is the regression test for the
// self-scheduler deadlock: with fewer chunks than slaves, the master's
// initial round already hands out done-markers, and counting those
// slaves as active left it waiting forever on requests that never come.
// Every ray count must terminate with exact conservation, including a
// partial final chunk and zero rays. No workload scale expresses zero
// rays, so the test drives the rank body on a four-slave world of its
// own.
func TestTerminatesBelowOneChunkPerSlave(t *testing.T) {
	for _, rays := range []int{0, 1, 999, 1000, 1234, 3999, 5000} {
		k := sim.New(1)
		net := grid5000.Build(2, grid5000.Rennes, grid5000.Nancy)
		hosts := append([]*netsim.Host{net.Host("rennes-1")}, net.Hosts()...)
		w := mpi.NewWorld(k, net, tcpsim.Tuned4MB(), mpi.Reference(), hosts)
		cfg := Default()
		cfg.Rays = rays
		cfg.MergeBytes = 1 << 20 // keep the merge phase cheap
		app := New(cfg, w.Size())
		_, err := w.Run(app.Body)
		k.Close()
		if err != nil {
			t.Fatalf("rays=%d: %v", rays, err)
		}
		total := 0
		for _, n := range app.Rays {
			total += n
		}
		if total != rays {
			t.Errorf("rays=%d: computed %d, want all of them", rays, total)
		}
	}
}
