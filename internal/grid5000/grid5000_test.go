package grid5000

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

func TestRTTMatrixSymmetricAndComplete(t *testing.T) {
	names := []string{Rennes, Nancy, Sophia, Toulouse}
	for i, a := range names {
		for j, b := range names {
			if i == j {
				continue
			}
			if RTT(a, b) != RTT(b, a) {
				t.Fatalf("RTT(%s,%s) != RTT(%s,%s)", a, b, b, a)
			}
		}
	}
	if RTT(Rennes, Nancy) != 11600*time.Microsecond {
		t.Fatalf("Rennes-Nancy RTT = %v, want 11.6ms", RTT(Rennes, Nancy))
	}
}

func TestRennesNancyTopology(t *testing.T) {
	net := netsim.New([]netsim.Site{Cluster(Rennes, 8), Cluster(Nancy, 8)}, OneWay)
	if got := len(net.Hosts()); got != 16 {
		t.Fatalf("hosts = %d, want 16", got)
	}
	p := net.Path(net.Host("rennes-1"), net.Host("nancy-1"))
	if p.RTT() != 11600*time.Microsecond {
		t.Fatalf("WAN RTT = %v", p.RTT())
	}
	intra := net.Path(net.Host("rennes-1"), net.Host("rennes-2"))
	if intra.OneWay != IntraClusterOneWay {
		t.Fatalf("intra OWD = %v", intra.OneWay)
	}
}

func TestRayTestbedSpeeds(t *testing.T) {
	net := netsim.New([]netsim.Site{Cluster(Nancy, 8), Cluster(Rennes, 8), Cluster(Sophia, 8), Cluster(Toulouse, 8)}, OneWay) // the Figure 8 testbed
	if got := len(net.Hosts()); got != 32 {
		t.Fatalf("hosts = %d, want 32", got)
	}
	s := net.Host("sophia-1").CPUSpeed
	for _, other := range []string{"rennes-1", "nancy-1", "toulouse-1"} {
		if net.Host(other).CPUSpeed >= s {
			t.Fatalf("Sophia should be the fastest cluster (%s has %.2f ≥ %.2f)",
				other, net.Host(other).CPUSpeed, s)
		}
	}
	if net.Host("nancy-1").CPUSpeed >= net.Host("rennes-1").CPUSpeed {
		t.Fatal("Nancy should be slower than Rennes")
	}
}

func TestUnknownSitePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown site did not panic")
		}
	}()
	Cluster("lyon", 2) // not in the four-site spec table
}
