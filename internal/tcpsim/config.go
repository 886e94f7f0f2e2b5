// Package tcpsim simulates TCP transport over a netsim network at
// flow level: one simulation event per congestion-window round instead of
// one per segment. Each round transmits min(cwnd, socket window, pending)
// bytes, lasts max(RTT, serialization), and updates the congestion window
// with slow-start / BIC rules, burst losses on unpaced slow-start
// overshoot (the phenomenon behind the paper's Figure 9), and contention
// losses on oversubscribed links.
//
// The socket-buffer model reproduces the Linux 2.6.18 semantics the paper
// tunes in §4.2.1: explicit setsockopt sizes are capped by rmem_max /
// wmem_max, while connections that do not call setsockopt are governed by
// the tcp_rmem / tcp_wmem autotuning bounds. A Config holds only what a
// run varies; the model's calibration is the constants below.
package tcpsim

import "time"

// Common rates in bytes per second.
const (
	GigabitEthernet    = 125e6  // 1 Gbit/s
	TenGigabitEthernet = 1.25e9 // 10 Gbit/s
)

// The model's calibration: every run uses these values.
const (
	// mss is the TCP payload per segment; frameOverhead is the per-segment
	// wire overhead (IP+TCP+Ethernet framing), giving a goodput efficiency
	// of mss/(mss+frameOverhead) — 94.1% on GbE, the paper's 940 Mbps.
	mss           int = 1448
	frameOverhead int = 90

	// efficiency is the goodput fraction of raw link rate.
	efficiency = float64(mss) / float64(mss+frameOverhead)

	// initCwndSegs is the initial congestion window in segments.
	initCwndSegs int = 3

	// initialSsthresh (bytes) models the conservative slow-start threshold
	// a fresh Linux connection starts from (route-cache metrics / early
	// ack-train losses). It is what makes the first seconds of a
	// long-distance transfer slow (Figure 9): above it, the window grows
	// only at congestion-avoidance speed.
	initialSsthresh int = 512 << 10

	// burstQueue is the bottleneck queue capacity (bytes) of a
	// long-distance path: an unpaced slow-start burst whose window exceeds
	// the path BDP plus this queue overflows it and loses segments. Paced
	// senders (GridMPI's kernel modification) smooth their bursts and
	// tolerate pacingBurstFactor times more.
	burstQueue        int     = 256 << 10
	pacingBurstFactor float64 = 4

	// pacingGrowthFactor scales congestion-avoidance growth for paced
	// flows: a smooth ack clock lets BIC take its full increments, so a
	// paced connection recovers window multiple times faster — the
	// behaviour behind GridMPI's fast ramp in Figure 9(c).
	pacingGrowthFactor float64 = 8

	// contentionLossCoef scales the per-round loss probability of a flow
	// whose path links are oversubscribed; paced flows multiply it by
	// pacingLossFactor (<1).
	contentionLossCoef float64 = 0.12
	pacingLossFactor   float64 = 0.10

	// minRTO is the lower bound on the retransmission timeout used for the
	// idle-restart rule.
	minRTO time.Duration = 200 * time.Millisecond

	// wanThreshold classifies a path as long-distance when its RTT is at
	// least this value; burst losses only occur on long-distance paths
	// (cluster switches have ample queues relative to the tiny BDP).
	wanThreshold time.Duration = time.Millisecond
)

// Config models the host TCP stack: the Linux sysctls the paper tunes,
// the endpoint software overhead, and GridMPI's pacing.
type Config struct {
	// RmemMax / WmemMax cap explicit setsockopt(SO_RCVBUF/SO_SNDBUF)
	// requests (/proc/sys/net/core/rmem_max, wmem_max).
	RmemMax, WmemMax int

	// TCPRmem / TCPWmem are the {min, default, max} autotuning bounds
	// (/proc/sys/net/ipv4/tcp_rmem, tcp_wmem). Index 1 (the "middle
	// value") is the initial window used by stacks that disable
	// autotuning; index 2 bounds autotuned growth.
	TCPRmem, TCPWmem [3]int

	// SlowStartAfterIdle mirrors tcp_slow_start_after_idle: connections
	// idle for longer than the RTO restart from the initial window.
	SlowStartAfterIdle bool

	// HostOverhead is the per-endpoint software latency added to every
	// one-way traversal (interrupt + stack + copy). Two endpoints
	// contribute 2*HostOverhead to a one-way message latency.
	HostOverhead time.Duration

	// Pacing enables software pacing on flows opened under this config
	// (GridMPI's TCP modification, Takano et al. PFLDnet'05).
	Pacing bool
}

// DefaultLinux26 returns the Linux 2.6.18 stack the paper's nodes boot
// with, untuned: 128 kB-class socket buffer ceilings that strangle a
// 11.6 ms RTT path to ~120 Mbps (Figure 3).
func DefaultLinux26() Config {
	return Config{
		RmemMax:            131072,
		WmemMax:            131072,
		TCPRmem:            [3]int{4096, 87380, 174760},
		TCPWmem:            [3]int{4096, 16384, 262144},
		SlowStartAfterIdle: true,
		HostOverhead:       6 * time.Microsecond,
	}
}

// Tuned4MB returns the paper's §4.2.1 tuning: rmem_max/wmem_max and the
// autotuning maxima raised to 4 MB — at least the 1.45 MB bandwidth-delay
// product of the Rennes–Nancy path, with headroom for the rest of the grid.
// It deliberately leaves the tcp_rmem/tcp_wmem middle values alone: raising
// those is a per-stack need (GridMPI never autotunes past the middle value)
// and lives with the stack, in mpiimpl.Configure's GridMPI branch, not in
// the host-wide sysctl tuning.
func Tuned4MB() Config {
	c := DefaultLinux26()
	const buf = 4 << 20
	c.RmemMax = buf
	c.WmemMax = buf
	c.TCPRmem[2] = buf
	c.TCPWmem[2] = buf
	// Companion WAN tuning: without it, every >0.2 s pingpong message
	// restarts from the initial window and large-message bandwidth
	// plateaus hundreds of Mbps short of the paper's ~900 Mbps
	// (tcp_slow_start_after_idle=0 is standard practice on long fat
	// networks and necessary to reproduce Figures 6 and 7).
	c.SlowStartAfterIdle = false
	return c
}

// BufferPolicy says how a connection sizes its socket buffers, mirroring
// the three behaviours the paper encounters (§4.2.1).
type BufferPolicy struct {
	// Explicit > 0 means the application calls setsockopt with this size
	// (OpenMPI's btl_tcp_sndbuf/rcvbuf); the kernel caps it at
	// rmem_max/wmem_max and autotuning is disabled.
	Explicit int
	// KernelDefault means the connection sticks to the tcp_rmem middle
	// value and never autotunes (GridMPI's behaviour: tuning it requires
	// raising the middle value).
	KernelDefault bool
	// Otherwise the kernel autotunes up to tcp_rmem[2]/tcp_wmem[2]
	// (MPICH2, MPICH-Madeleine, and the raw-TCP pingpong).
}

// Autotune is the zero BufferPolicy: kernel autotuning.
var Autotune = BufferPolicy{}

// WindowCap returns the effective window limit (bytes) a connection can
// ever have in flight under this policy: the binding minimum of the send
// buffer ceiling and the advertisable receive window. Linux reserves a
// quarter of the receive buffer for metadata (tcp_adv_win_scale=2), so
// only 3/4 of the receive-side bytes are usable as window — this is what
// keeps the paper's untuned grid curves under 120 Mbps at every size.
func (c Config) WindowCap(p BufferPolicy) int {
	adv := func(rcv int) int { return rcv - rcv/4 }
	switch {
	case p.Explicit > 0:
		snd := min(p.Explicit, c.WmemMax)
		rcv := min(p.Explicit, c.RmemMax)
		return min(snd, adv(rcv))
	case p.KernelDefault:
		// "KernelDefault" is a receive-side condition: moderation keeps the
		// advertised window at the tcp_rmem middle value (GridMPI's
		// behaviour). The send buffer is NOT stuck at tcp_wmem[1] — Linux
		// send-side autotuning is unconditional (it needs no application
		// cooperation), so the send ceiling is tcp_wmem[2]. With the stock
		// 2.6.18 sysctls that ceiling (256 kB) clears adv(87380) ≈ 64 kB and
		// the receive window binds, which is why the asymmetry with the
		// Explicit branch is invisible in the shipped configs — but a stack
		// with a small tcp_wmem[2] would be send-limited, and this honors it.
		return min(c.TCPWmem[2], adv(c.TCPRmem[1]))
	default:
		return min(c.TCPWmem[2], adv(c.TCPRmem[2]))
	}
}
