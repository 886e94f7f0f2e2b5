package mpi

import "sort"

// Stats aggregates the communication census of a world: application-level
// point-to-point messages (by exact size and by locality) and collective
// calls. The NPB experiments use it to verify the paper's Table 2.
type Stats struct {
	// P2PSends counts user-level Send/Isend calls; P2PBytes their payload.
	P2PSends int64
	P2PBytes int64
	// WANSends / WANBytes count the subset crossing sites.
	WANSends int64
	WANBytes int64
	// Rendezvous counts sends that used the rendezvous protocol.
	Rendezvous int64
	// Unexpected counts eager messages that arrived before a matching
	// receive was posted.
	Unexpected int64

	// CollSends/CollBytes count the transport messages the collective
	// algorithms themselves exchange, and CollWANSends/CollWANBytes the
	// subset crossing sites. They exist so tests can compare flat vs
	// multilevel traffic; they are deliberately NOT part of the
	// serialized Census, so zero-Multilevel artifacts (goldens, caches,
	// fingerprinted results) stay byte-identical.
	CollSends    int64
	CollBytes    int64
	CollWANSends int64
	CollWANBytes int64

	sizeCounts map[int64]int64
	collCalls  map[string]int64
	collSentBy []int64
	collRecvBy []int64
}

func newStats() *Stats {
	return &Stats{
		sizeCounts: make(map[int64]int64),
		collCalls:  make(map[string]int64),
	}
}

func (s *Stats) recordP2P(size int64, wan bool) {
	s.P2PSends++
	s.P2PBytes += size
	if wan {
		s.WANSends++
		s.WANBytes += size
	}
	s.sizeCounts[size]++
}

func (s *Stats) recordColl(op string) {
	s.collCalls[op]++
}

// recordCollMsg books one collective-context transport message. The
// receiver is credited at send time; that is sound because collectives
// only complete once every posted message is consumed.
func (s *Stats) recordCollMsg(src, dst int, size int64, wan bool) {
	s.CollSends++
	s.CollBytes += size
	if wan {
		s.CollWANSends++
		s.CollWANBytes += size
	}
	if n := max(src, dst) + 1; n > len(s.collSentBy) {
		s.collSentBy = append(s.collSentBy, make([]int64, n-len(s.collSentBy))...)
		s.collRecvBy = append(s.collRecvBy, make([]int64, n-len(s.collRecvBy))...)
	}
	s.collSentBy[src] += size
	s.collRecvBy[dst] += size
}

// CollSentBytes returns the collective payload bytes rank sent.
func (s *Stats) CollSentBytes(rank int) int64 {
	if rank >= len(s.collSentBy) {
		return 0
	}
	return s.collSentBy[rank]
}

// CollRecvBytes returns the collective payload bytes rank received.
func (s *Stats) CollRecvBytes(rank int) int64 {
	if rank >= len(s.collRecvBy) {
		return 0
	}
	return s.collRecvBy[rank]
}

// SizeCount is one row of the message-size census.
type SizeCount struct {
	Size  int64
	Count int64
}

// SizeCensus returns the per-size message counts sorted by size.
func (s *Stats) SizeCensus() []SizeCount {
	out := make([]SizeCount, 0, len(s.sizeCounts))
	for sz, c := range s.sizeCounts {
		out = append(out, SizeCount{sz, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	return out
}

// CountBetween returns how many point-to-point messages had sizes in
// [lo, hi].
func (s *Stats) CountBetween(lo, hi int64) int64 {
	var n int64
	for sz, c := range s.sizeCounts {
		if sz >= lo && sz <= hi {
			n += c
		}
	}
	return n
}

// CollCalls returns the number of calls of one collective operation
// (e.g. "bcast", "allreduce", "alltoallv").
func (s *Stats) CollCalls(op string) int64 { return s.collCalls[op] }

// CollOps returns the names of collective operations invoked, sorted.
func (s *Stats) CollOps() []string {
	ops := make([]string, 0, len(s.collCalls))
	for op := range s.collCalls {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return ops
}
