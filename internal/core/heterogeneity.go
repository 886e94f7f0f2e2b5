package core

import (
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/mpi"
	"repro/internal/mpiimpl"
	"repro/internal/tables"
)

// This file implements the paper's second future-work thread (§5):
// "we will test the heterogeneity management of each implementation with
// different high performance networks. Using these networks for local
// communications can be efficient ... but the overhead introduced by the
// management of heterogeneity has to be less important than the TCP cost."
//
// We model a Myrinet-class local fabric and an MPICH-Madeleine-style
// gateway, and measure at which per-message gateway overhead the
// high-speed fabric stops paying off against plain TCP on Ethernet.

// Fabric describes an intra-cluster interconnect.
type Fabric struct {
	Name   string
	OneWay time.Duration // switch+wire one-way delay
	Rate   float64       // bytes/second
	// StackOverhead is the per-endpoint software cost; OS-bypass fabrics
	// (Myrinet MX) are far cheaper than the kernel TCP stack.
	StackOverhead time.Duration
}

// Fabrics of the era, from the paper's Table 1 ecosystem.
var (
	GigabitEthernetFabric = Fabric{"1 GbE / TCP", 29 * time.Microsecond, 125e6, 6 * time.Microsecond}
	MyrinetFabric         = Fabric{"Myrinet MX", 3 * time.Microsecond, 250e6, 1 * time.Microsecond}
	InfinibandFabric      = Fabric{"Infiniband", 2 * time.Microsecond, 1e9, 1 * time.Microsecond}
)

// HeterogeneityPoint is one measurement of the gateway experiment.
type HeterogeneityPoint struct {
	Fabric          string
	GatewayOverhead time.Duration
	Latency1B       time.Duration
	Mbps1MB         float64
	BeatsTCP        bool
}

// ExtensionHeterogeneity measures intra-cluster pingpongs over high-speed
// fabrics reached through a Madeleine-style gateway with increasing
// per-message overheads, against the plain TCP/Ethernet baseline. Every
// (fabric, gateway) cell is one fabric-workload experiment on the shared
// runner.
func ExtensionHeterogeneity(r *exp.Runner, reps int) []HeterogeneityPoint {
	gateways := []time.Duration{0, 10 * time.Microsecond, 40 * time.Microsecond, 160 * time.Microsecond}
	var exps []exp.Experiment
	fabricExp := func(f Fabric, gw time.Duration) exp.Experiment {
		return exp.Experiment{
			Impl: mpiimpl.Madeleine,
			// The eager/rendezvous switch is tuned away per Table 5.
			EagerThreshold: mpi.Infinite,
			Workload:       exp.FabricWorkload(f.OneWay, f.Rate, f.StackOverhead, gw, []int{1, 1 << 20}, reps),
		}
	}
	exps = append(exps, fabricExp(GigabitEthernetFabric, 0))
	for _, fabric := range []Fabric{MyrinetFabric, InfinibandFabric} {
		for _, gw := range gateways {
			exps = append(exps, fabricExp(fabric, gw))
		}
	}
	results := runAll(r, "heterogeneity", exps)
	measure := func(i int) (time.Duration, float64) {
		return results[i].Points[0].OneWay(), results[i].Points[1].Mbps
	}

	baseLat, baseBW := measure(0)
	out := []HeterogeneityPoint{{
		Fabric:    GigabitEthernetFabric.Name,
		Latency1B: baseLat,
		Mbps1MB:   baseBW,
		BeatsTCP:  true,
	}}
	i := 1
	for _, fabric := range []Fabric{MyrinetFabric, InfinibandFabric} {
		for _, gw := range gateways {
			lat, bw := measure(i)
			i++
			out = append(out, HeterogeneityPoint{
				Fabric:          fabric.Name,
				GatewayOverhead: gw,
				Latency1B:       lat,
				Mbps1MB:         bw,
				BeatsTCP:        lat < baseLat && bw > baseBW,
			})
		}
	}
	return out
}

// RenderExtensionHeterogeneity formats the gateway experiment.
func RenderExtensionHeterogeneity(pts []HeterogeneityPoint) string {
	headers := []string{"fabric", "gateway overhead", "1 B latency", "1 MB bandwidth", "beats TCP/GbE"}
	var rows [][]string
	for _, p := range pts {
		gw := "-"
		if p.Fabric != GigabitEthernetFabric.Name {
			gw = p.GatewayOverhead.String()
		}
		beats := "yes"
		if !p.BeatsTCP {
			beats = "no"
		}
		rows = append(rows, []string{
			p.Fabric, gw, p.Latency1B.String(),
			fmt.Sprintf("%.0f", p.Mbps1MB), beats,
		})
	}
	return "Extension: high-speed local fabrics behind a Madeleine-style gateway\n" +
		tables.Render(headers, rows)
}
