package core

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/mpiimpl"
	"repro/internal/tables"
)

// The experiments in this file go beyond the paper's figures: they cover
// the future work its §5 announces (MPICH-G2) and ablations of the design
// choices DESIGN.md calls out (socket-buffer sizing, pacing, congestion
// control, grid collectives).

// StreamsPoint is one row of the parallel-streams extension experiment.
type StreamsPoint struct {
	Size        int
	MPICH2Mbps  float64
	MPICHG2Mbps float64
}

// ExtensionMPICHG2 measures MPICH-G2's parallel-stream large-message
// support against MPICH2 on an untuned WAN: with default socket buffers,
// k streams carry k windows, multiplying the window-limited bandwidth —
// the reason MPICH-G2's "support for large messages using several TCP
// streams" (§2.1.5) matters on unconfigured grids.
func ExtensionMPICHG2(r *exp.Runner, reps int) []StreamsPoint {
	sizes := []int{1 << 20, 4 << 20, 16 << 20, 64 << 20}
	results := runAll(r, "extension-g2", []exp.Experiment{
		{Impl: mpiimpl.MPICH2, Topology: gridPair, Workload: exp.PingPongWorkload(sizes, reps)},
		{Impl: mpiimpl.MPICHG2, Topology: gridPair, Workload: exp.PingPongWorkload(sizes, reps)},
	})
	mp, g2 := results[0].Points, results[1].Points
	out := make([]StreamsPoint, len(sizes))
	for i := range sizes {
		out[i] = StreamsPoint{Size: sizes[i], MPICH2Mbps: mp[i].Mbps, MPICHG2Mbps: g2[i].Mbps}
	}
	return out
}

// RenderExtensionMPICHG2 formats the parallel-streams comparison.
func RenderExtensionMPICHG2(pts []StreamsPoint) string {
	headers := []string{"size", "MPICH2 (Mbps)", "MPICH-G2, 4 streams (Mbps)", "gain"}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			tables.Size(int64(p.Size)),
			fmt.Sprintf("%.1f", p.MPICH2Mbps),
			fmt.Sprintf("%.1f", p.MPICHG2Mbps),
			fmt.Sprintf("%.1fx", p.MPICHG2Mbps/p.MPICH2Mbps),
		})
	}
	return "Extension: MPICH-G2 parallel streams on an untuned WAN\n" + tables.Render(headers, rows)
}

// BufferPoint is one row of the socket-buffer sweep.
type BufferPoint struct {
	BufferBytes int
	Mbps        float64
}

// BufferSweep is the §4.2.1 ablation: 64 MB WAN bandwidth as a function of
// the socket-buffer size, showing the window-limited regime (bandwidth ∝
// buffer/RTT) up to the ≈1.45 MB bandwidth-delay product and the line-rate
// plateau beyond it.
func BufferSweep(r *exp.Runner, reps int) []BufferPoint {
	bufs := []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}
	exps := make([]exp.Experiment, len(bufs))
	for i, buf := range bufs {
		exps[i] = exp.Experiment{
			Impl:         mpiimpl.RawTCP,
			Tuning:       exp.Tuning{TCP: true},
			Topology:     gridPair,
			Workload:     exp.PingPongWorkload([]int{64 << 20}, reps),
			SocketBuffer: buf,
		}
	}
	out := make([]BufferPoint, 0, len(bufs))
	for i, res := range runAll(r, "buffer sweep", exps) {
		out = append(out, BufferPoint{BufferBytes: bufs[i], Mbps: res.Points[0].Mbps})
	}
	return out
}

// RenderBufferSweep formats the buffer sweep.
func RenderBufferSweep(pts []BufferPoint) string {
	headers := []string{"socket buffer", "64 MB bandwidth (Mbps)"}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{tables.Size(int64(p.BufferBytes)), fmt.Sprintf("%.1f", p.Mbps)})
	}
	return "Ablation: WAN bandwidth vs socket-buffer size (BDP ≈ 1.45 MB)\n" + tables.Render(headers, rows)
}
