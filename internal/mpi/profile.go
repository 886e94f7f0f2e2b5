// Package mpi implements a message-passing library with MPI semantics on
// top of the simulated TCP transport: blocking and nonblocking
// point-to-point operations with tag matching, eager and rendezvous wire
// protocols, and the collective operations used by the paper's workloads.
//
// The behavioural differences between the four MPI implementations the
// paper compares are captured by a Profile: software latency overheads,
// the eager/rendezvous threshold, the socket-buffer policy, grid-aware
// collective algorithms, and two implementation quirks (OpenMPI's
// fragment pipeline, MPICH-Madeleine's serialized rendezvous). GridMPI's
// TCP pacing is a property of the TCP stack (tcpsim.Config.Pacing), set
// with the rest of the stack by mpiimpl.Configure.
package mpi

import (
	"time"

	"repro/internal/tcpsim"
)

// EnvelopeBytes is the wire overhead added to every MPI message.
const EnvelopeBytes = 64

// ControlBytes is the wire size of rendezvous RTS/CTS control messages.
const ControlBytes = 64

// Infinite disables the rendezvous protocol when used as EagerThreshold.
const Infinite = int(^uint(0) >> 1)

// copyRate is the memory-copy bandwidth (bytes/s) of the Opteron nodes,
// used to price the extra copy of unexpected eager messages and the
// arithmetic of reductions.
const copyRate float64 = 2.5e9

// Profile parameterises the MPI engine to behave like one concrete MPI
// implementation. The zero value is not useful; start from one of the
// mpiimpl constructors or from Reference. TCP behaviour, GridMPI's
// pacing included, is the World's tcpsim.Config, not the profile's.
type Profile struct {
	// OverheadLocal and OverheadWAN are the per-message software latency
	// the implementation adds over raw TCP on intra-cluster and WAN paths
	// respectively (the paper's Table 4 deltas).
	OverheadLocal time.Duration
	OverheadWAN   time.Duration

	// EagerThreshold is the largest payload sent eagerly; larger messages
	// use the rendezvous protocol. Use Infinite to disable rendezvous
	// (GridMPI's default for MPI_Send).
	EagerThreshold int

	// Buffers is the socket-buffer policy for the implementation's TCP
	// connections (§4.2.1).
	Buffers tcpsim.BufferPolicy

	// GridCollectives selects GridMPI's grid-aware collectives (Matsuda
	// et al., Cluster'06): between exactly two sites, the van de Geijn
	// broadcast and the Rabenseifner allreduce from 32 KiB; otherwise
	// the scatter+ring broadcast from 512 KiB inside one cluster.
	GridCollectives bool

	// Multilevel stages every collective over the site partition
	// (Karonis et al., MPICH-G2): an intra-site phase per site, an
	// inter-site phase over one gateway rank per site, then intra-site
	// redistribution. It handles any number of sites and takes
	// precedence over GridCollectives; on a single site the collectives
	// run as without it.
	Multilevel bool

	// SerialRendezvous serializes rendezvous exchanges per peer pair
	// (MPICH-Madeleine's ch_mad engine behaviour).
	SerialRendezvous bool

	// SlowPathThreshold, when positive, models the size limit of an
	// implementation's pinned fast buffer (MPICH-Madeleine's
	// -fast-buffer channel): WAN messages larger than it fall back to a
	// polled path costing SlowPathStall of extra sender time each. With
	// the limit at ~148 kB, CG's 147 kB exchanges stay on the fast path
	// while BT/SP's ~152 kB ones stall — our model of the paper's
	// "application timeout" on grid BT/SP (Figure 10).
	SlowPathThreshold int
	SlowPathStall     time.Duration

	// FragmentSize > 0 splits payloads into pipeline fragments that each
	// cost FragmentOverhead of sender CPU (OpenMPI's BTL pipeline; the
	// cause of its slightly lower large-message bandwidth in Figure 7).
	FragmentSize     int
	FragmentOverhead time.Duration

	// ParallelStreams > 1 stripes large WAN payloads over that many TCP
	// connections (MPICH-G2's GridFTP-style large-message support,
	// §2.1.5): each stream ramps and keeps its own window, multiplying
	// window-limited throughput.
	ParallelStreams int
	// StreamMinSize is the smallest payload worth striping.
	StreamMinSize int
}

// Reference is a minimal well-behaved profile used by unit tests: no
// overheads beyond TCP, a 128 kB eager threshold, autotuned buffers.
func Reference() Profile {
	return Profile{
		EagerThreshold: 128 << 10,
		Buffers:        tcpsim.Autotune,
	}
}

// Overhead returns the per-message software latency for a local or WAN
// destination.
func (pr Profile) Overhead(wan bool) time.Duration {
	if wan {
		return pr.OverheadWAN
	}
	return pr.OverheadLocal
}

// UsesRendezvous reports whether a payload of n bytes goes through the
// rendezvous protocol under this profile.
func (pr Profile) UsesRendezvous(n int) bool {
	return pr.EagerThreshold != Infinite && n > pr.EagerThreshold
}

// WithEagerThreshold returns a copy with the eager/rendezvous threshold
// replaced (the paper's §4.2.2 tuning).
func (pr Profile) WithEagerThreshold(n int) Profile {
	pr.EagerThreshold = n
	return pr
}

// WithBuffers returns a copy with the socket-buffer policy replaced (the
// paper's §4.2.1 tuning).
func (pr Profile) WithBuffers(b tcpsim.BufferPolicy) Profile {
	pr.Buffers = b
	return pr
}
