package repro

import (
	"testing"
	"time"

	"repro/internal/grid5000"
	"repro/internal/mpi"
	"repro/internal/mpiimpl"
	"repro/internal/netsim"
	"repro/internal/npb"
	"repro/internal/sim"
)

// TestGridCollectivesSpeedUpFT isolates GridMPI's grid-aware broadcast
// and allreduce: NPB FT on the 8+8 Rennes–Nancy grid, TCP-tuned, must
// run faster with them than with the flat trees, pacing held constant.
// No experiment axis turns mpi.Profile.GridCollectives off, so this test
// builds its world by hand instead of going through exp.Run.
func TestGridCollectivesSpeedUpFT(t *testing.T) {
	ft := func(gridColl bool) time.Duration {
		prof, tcp := mpiimpl.Configure(mpiimpl.GridMPI, true, false)
		prof.GridCollectives = gridColl
		k := sim.New(1)
		defer k.Close()
		net := netsim.New([]netsim.Site{grid5000.Cluster(grid5000.Rennes, 8), grid5000.Cluster(grid5000.Nancy, 8)}, grid5000.OneWay)
		var hosts []*netsim.Host
		hosts = append(hosts, net.SiteHosts(grid5000.Rennes)...)
		hosts = append(hosts, net.SiteHosts(grid5000.Nancy)...)
		w := mpi.NewWorld(k, net, tcp, prof, hosts)
		spec := npb.Get("FT")
		elapsed, err := w.Run(func(r *mpi.Rank) { spec.Run(r, npb.Params{NP: 16, Scale: 0.2}) })
		if err != nil {
			t.Fatalf("grid collectives %v: %v", gridColl, err)
		}
		return elapsed
	}
	with, without := ft(true), ft(false)
	if with >= without {
		t.Errorf("FT takes %v with grid collectives and %v without; want faster with", with, without)
	}
}
