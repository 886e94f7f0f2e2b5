// Package grid5000 provides ready-made netsim topologies for the Grid'5000
// testbeds the paper experiments on: the Rennes–Nancy pingpong/NPB setup of
// Figure 2 / Table 3, and the four-site ray2mesh setup of Figure 8.
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
	CPUSpeed  float64
	Processor string
}

// Sites lists the four clusters of the ray2mesh experiment in a fixed
// order (deterministic topology construction).
var Sites = []Site{
	{Rennes, 1.00, "AMD Opteron 248, 2.2 GHz"},
	{Nancy, 0.97, "AMD Opteron 246, 2.0 GHz"},
	{Sophia, 1.22, "AMD Opteron, 2.4 GHz class"},
	{Toulouse, 0.99, "AMD Opteron, 2.0 GHz class"},
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

func spec(name string) Site {
	s, ok := Lookup(name)
	if !ok {
		panic("grid5000: unknown site " + name)
	}
	return s
}

// Lookup returns the named site's description, reporting whether it is
// one of the four paper clusters (callers that prefer errors over panics
// validate with it before building).
func Lookup(name string) (Site, bool) {
	for _, s := range Sites {
		if s.Name == name {
			return s, true
		}
	}
	return Site{}, false
}

// SiteCount pairs a site with its node count, for layouts whose clusters
// contribute different numbers of nodes.
type SiteCount struct {
	Name  string
	Nodes int
}

// Build constructs a network with the named sites, n nodes each, 1 Gbps
// NICs, 10 Gbps site uplinks, and the published WAN delays between every
// pair of requested sites.
func Build(nodesPerSite int, sites ...string) *netsim.Network {
	layout := make([]SiteCount, len(sites))
	for i, name := range sites {
		layout[i] = SiteCount{Name: name, Nodes: nodesPerSite}
	}
	return BuildLayout(layout)
}

// BuildLayout is Build for per-site node counts: each entry contributes
// its own number of nodes, with the same NICs, uplinks and WAN delays.
func BuildLayout(layout []SiteCount) *netsim.Network {
	net := netsim.New()
	for _, sc := range layout {
		s := spec(sc.Name)
		net.AddSite(s.Name, sc.Nodes, s.CPUSpeed, tcpsim.GigabitEthernet, IntraClusterOneWay)
		net.SetUplink(s.Name, tcpsim.TenGigabitEthernet)
	}
	for i := 0; i < len(layout); i++ {
		for j := i + 1; j < len(layout); j++ {
			net.ConnectSites(layout[i].Name, layout[j].Name, OneWay(layout[i].Name, layout[j].Name))
		}
	}
	return net
}

// RennesNancy builds the Figure 2 testbed: n nodes in Rennes and n in
// Nancy across the 11.6 ms RTT WAN.
func RennesNancy(nodesPerSite int) *netsim.Network {
	return Build(nodesPerSite, Rennes, Nancy)
}
