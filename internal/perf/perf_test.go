package perf

import (
	"math"
	"testing"
	"time"

	"repro/internal/grid5000"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

func world() (*sim.Kernel, *mpi.World) {
	k := sim.New(1)
	net := netsim.New([]netsim.Site{grid5000.Cluster(grid5000.Rennes, 1), grid5000.Cluster(grid5000.Nancy, 1)}, grid5000.OneWay)
	hosts := []*netsim.Host{net.Host("rennes-1"), net.Host("nancy-1")}
	return k, mpi.NewWorld(k, net, tcpsim.Tuned4MB(), mpi.Reference(), hosts)
}

func TestPingPongProducesAllSizes(t *testing.T) {
	k, w := world()
	defer k.Close()
	sizes := []int{1, 1024, 1 << 20}
	pts, err := PingPong(w, sizes, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(sizes) {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.Size != sizes[i] {
			t.Errorf("point %d size = %d", i, p.Size)
		}
		if p.MinRTT <= 0 || p.Mbps <= 0 {
			t.Errorf("point %d not measured: %+v", i, p)
		}
		if p.OneWay() != p.MinRTT/2 {
			t.Errorf("OneWay inconsistent")
		}
	}
	// Bandwidth grows with size in this range.
	if pts[2].Mbps <= pts[1].Mbps || pts[1].Mbps <= pts[0].Mbps {
		t.Errorf("bandwidth not increasing: %v", pts)
	}
}

func TestBandwidthTraceMonotoneTime(t *testing.T) {
	k, w := world()
	defer k.Close()
	trace, err := BandwidthTrace(w, 1<<20, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 30 {
		t.Fatalf("trace length = %d", len(trace))
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].T <= trace[i-1].T {
			t.Fatalf("trace times not increasing at %d", i)
		}
	}
	if MaxMbps(trace) < trace[0].Mbps {
		t.Fatal("MaxMbps below first point")
	}
}

func TestTimeTo(t *testing.T) {
	trace := []TracePoint{{T: time.Second, Mbps: 100}, {T: 2 * time.Second, Mbps: 300}}
	if got := TimeTo(trace, 200); got != 2*time.Second {
		t.Fatalf("TimeTo = %v", got)
	}
	if got := TimeTo(trace, 500); got != -1 {
		t.Fatalf("TimeTo unreachable = %v, want -1", got)
	}
}

func TestPowersOfTwoSizes(t *testing.T) {
	got := PowersOfTwoSizes(1<<10, 8<<10)
	want := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10}
	if len(got) != len(want) {
		t.Fatalf("sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sizes = %v", got)
		}
	}
	// Doubling stops before it would pass max, so the grid cannot wrap.
	if got := PowersOfTwoSizes(1<<10, math.MaxInt); len(got) != 53 || got[52] != 1<<62 {
		t.Fatalf("sizes up to MaxInt: %d ending at %d, want 53 ending at 2^62", len(got), got[len(got)-1])
	}
}
