// Package grid5000 holds the site data of the Grid'5000 testbeds the
// paper experiments on: the Rennes–Nancy pingpong/NPB setup of Figure 2 /
// Table 3, and the four-site ray2mesh setup of Figure 8. Cluster turns a
// site into a netsim.Site, and OneWay gives the WAN delay between two.
//
// One-way delays are chosen so a raw TCP pingpong reproduces Table 4: the
// 29 µs intra-cluster delay plus 2×6 µs of stack overhead gives the paper's
// 41 µs cluster latency, and half the published RTTs plus stack overhead
// gives the grid latencies (5812 µs for Rennes–Nancy).
package grid5000

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcpsim"
)

// Site names used throughout the experiments.
const (
	Rennes   = "rennes"
	Nancy    = "nancy"
	Sophia   = "sophia"
	Toulouse = "toulouse"
)

// IntraClusterOneWay is the one-way switch+wire delay inside a cluster.
const IntraClusterOneWay = 29 * time.Microsecond

// Site describes one Grid'5000 cluster as used in the paper.
type Site struct {
	Name string
	// CPUSpeed is the relative node speed (Rennes Opteron 248 = 1.0),
	// calibrated from Table 3 clock rates and the Table 6 per-cluster ray
	// throughput ("Nancy < Rennes, Toulouse < Sophia").
	CPUSpeed float64
}

// Sites lists the four clusters of the ray2mesh experiment in a fixed
// order (deterministic topology construction).
var Sites = []Site{
	{Rennes, 1.00},   // AMD Opteron 248, 2.2 GHz
	{Nancy, 0.97},    // AMD Opteron 246, 2.0 GHz
	{Sophia, 1.22},   // AMD Opteron, 2.4 GHz class
	{Toulouse, 0.99}, // AMD Opteron, 2.0 GHz class
}

// rttMillis is the published round-trip matrix (Figure 8, plus the text's
// Rennes–Sophia ≈19 ms). Keys are alphabetically ordered pairs.
var rttMillis = map[[2]string]float64{
	{Nancy, Rennes}:    11.6,
	{Nancy, Sophia}:    17.2,
	{Nancy, Toulouse}:  17.8,
	{Rennes, Sophia}:   19.2,
	{Rennes, Toulouse}: 14.5,
	{Sophia, Toulouse}: 19.9,
}

// RTT returns the WAN round-trip time between two distinct sites.
func RTT(a, b string) time.Duration {
	if a > b {
		a, b = b, a
	}
	ms, ok := rttMillis[[2]string{a, b}]
	if !ok {
		panic(fmt.Sprintf("grid5000: no RTT for %s-%s", a, b))
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// OneWay returns half the WAN RTT between two sites.
func OneWay(a, b string) time.Duration { return RTT(a, b) / 2 }

// Lookup returns the named site's description, reporting whether it is
// one of the four paper clusters.
func Lookup(name string) (Site, bool) {
	for _, s := range Sites {
		if s.Name == name {
			return s, true
		}
	}
	return Site{}, false
}

// Cluster describes nodes of the named paper cluster as a netsim site:
// its CPU speed, 1 Gbps NICs, the intra-cluster delay and a 10 Gbps
// uplink. It panics on a name outside Sites; callers that prefer errors
// validate with Lookup first.
func Cluster(name string, nodes int) netsim.Site {
	s, ok := Lookup(name)
	if !ok {
		panic("grid5000: unknown site " + name)
	}
	return netsim.Site{
		Name:       name,
		Nodes:      nodes,
		CPUSpeed:   s.CPUSpeed,
		NICRate:    tcpsim.GigabitEthernet,
		OneWay:     IntraClusterOneWay,
		UplinkRate: tcpsim.TenGigabitEthernet,
	}
}
