package mpi

import (
	"time"
)

// Collectives are one staged mechanism (see kernels.go): every operation
// makes one strategy decision and runs a short intra-site → inter-site →
// redistribution sequence of group kernels over the world's site
// partition. The flat strategy is the one-phase case over all ranks.
//
// Tag discipline: each call reserves one 64-tag block (startColl), and
// every phase of the call uses a distinct offset inside it, so messages
// of different phases never match each other even while ranks are in
// different phases. Offsets 0..19 and 20..39 leave room for the
// per-round tags of recursive doubling / dissemination over groups of up
// to 2^20 members.

const (
	// gridCollMin is the smallest payload for which GridMPI's two-site
	// algorithms are worthwhile; below it the latency of extra phases
	// dominates and the binomial algorithms win even across a WAN.
	gridCollMin = 32 << 10
	// largeBcastMin is where scatter+ring allgather beats the binomial
	// tree.
	largeBcastMin = 512 << 10
)

// internal point-to-point helpers running in the collective context.

func (r *Rank) csend(dst, tag int, size int64) {
	r.sendProto(r.proc, dst, tag, size, ctxColl, false, nil)
}

func (r *Rank) cisend(dst, tag int, size int64) *Request {
	req := r.w.getReq(r)
	j := r.w.getJob()
	j.r, j.dst, j.tag, j.ctx, j.size, j.req = r, dst, tag, ctxColl, size, req
	r.w.K.GoJob("coll-isend", runSendJob, j)
	return req
}

func (r *Rank) crecv(src, tag int) Status { return r.Wait(r.irecv(src, tag, ctxColl)) }

func (r *Rank) cirecv(src, tag int) *Request { return r.irecv(src, tag, ctxColl) }

func (r *Rank) csendrecv(dst, sendTag int, size int64, src, recvTag int) {
	sreq := r.cisend(dst, sendTag, size)
	r.crecv(src, recvTag)
	r.Wait(sreq)
}

// startColl reserves the tag block of one collective call and books the
// call in the census on the recording rank (the root, or rank 0). All
// ranks call collectives in the same order (the usual SPMD contract), so
// the blocks agree across ranks.
func (r *Rank) startColl(op string, recorder int, bytes int64) int {
	r.collSeq++
	if r.id == recorder {
		r.w.stats.recordColl(op, bytes)
	}
	return r.collSeq << 6
}

// combineCost models the arithmetic of a reduction over n bytes.
func (r *Rank) combineCost(n int64) {
	r.Compute(time.Duration(float64(n) / r.w.Prof.CopyRate * float64(time.Second)))
}

// sites is the site partition of a world's ranks. Groups are ordered by
// the site's first appearance walking ranks 0..P-1 and list their ranks
// in rank order, so groups[0][0] == 0; a site's gateway is its first
// rank.
type sites struct {
	all      []int   // 0..P-1: the member list of the flat algorithms
	groups   [][]int // rank ids per site
	of       []int   // rank id -> index of its site in groups
	gateways []int   // groups[i][0]
	sizes    []int   // len(groups[i])
}

// sites returns the world's partition, built on first use.
func (w *World) sites() *sites {
	if w.partition != nil {
		return w.partition
	}
	s := &sites{all: make([]int, len(w.ranks)), of: make([]int, len(w.ranks))}
	index := make(map[string]int)
	for id, rk := range w.ranks {
		i, ok := index[rk.host.Site]
		if !ok {
			i = len(s.groups)
			index[rk.host.Site] = i
			s.groups = append(s.groups, nil)
			s.gateways = append(s.gateways, id)
			s.sizes = append(s.sizes, 0)
		}
		s.groups[i] = append(s.groups[i], id)
		s.sizes[i]++
		s.all[id], s.of[id] = id, i
	}
	w.partition = s
	return s
}

// hub is the position in site i of the hub of a collective rooted at
// root: the root in its own site, the gateway elsewhere.
func (s *sites) hub(i, root int) int {
	if s.of[root] != i {
		return 0
	}
	return indexOf(s.groups[i], root)
}

// rootGateways lists the gateways of a collective rooted at root: the
// root stands in for its own site's gateway.
func (s *sites) rootGateways(root int) []int {
	gws := s.gateways
	if i := s.of[root]; gws[i] != root {
		gws = append([]int(nil), gws...)
		gws[i] = root
	}
	return gws
}

// strategy is a collective's algorithm family.
type strategy int

const (
	flat        strategy = iota // one kernel sequence over all ranks
	multilevel                  // staged over per-site gateways (Profile.Multilevel)
	twoSite                     // GridMPI's two-site bcast/allreduce
	scatterRing                 // GridMPI's large-message bcast
)

// strategy is the one algorithm decision of every collective op with
// payload n: multilevel on two or more sites; under GridCollectives,
// the two-site bcast/allreduce from gridCollMin bytes, else the
// scatter+ring bcast from largeBcastMin; flat otherwise.
func (r *Rank) strategy(op string, n int) strategy {
	prof, S := r.w.Prof, len(r.w.sites().groups)
	switch {
	case prof.Multilevel && S >= 2:
		return multilevel
	case !prof.GridCollectives || op != "bcast" && op != "allreduce":
		return flat
	case S == 2 && n >= gridCollMin:
		return twoSite
	case op == "bcast" && n >= largeBcastMin:
		return scatterRing
	}
	return flat
}

// Bcast broadcasts n payload bytes from root to every rank.
func (r *Rank) Bcast(root int, n int) {
	tag := r.startColl("bcast", root, int64(n))
	s := r.w.sites()
	switch r.strategy("bcast", n) {
	case multilevel:
		// The root broadcasts to the gateways over the WAN (one message
		// per remote site), then each gateway inside its site.
		me := s.of[r.id]
		r.bcastTree(tag, s.rootGateways(root), s.of[root], int64(n))
		r.bcastTree(tag+1, s.groups[me], s.hub(me, root), int64(n))
	case twoSite:
		r.twoSiteBcast(tag, root, int64(n))
	case scatterRing:
		// van de Geijn inside one cluster: the root scatters P chunks and
		// a ring allgather circulates them, 2n per NIC instead of the
		// binomial's log2(P)·n at the root. Chunks are n/P bytes; the
		// n mod P remainder is not sent.
		chunk := max(int64(n)/int64(r.Size()), 1)
		r.fanOut(tag, s.all, root, root, chunk, nil)
		r.ring(tag+1, s.all, chunk, false)
	default:
		// The classic log2(P) tree: across a WAN its edges pay the full
		// latency and the root's NIC carries the payload to each site.
		r.bcastTree(tag, s.all, root, int64(n))
	}
}

// twoSiteBcast is GridMPI's van de Geijn broadcast between two clusters
// (Matsuda et al., Cluster'06). With k the smaller site size, the root
// scatters k chunks to the first k members of its site counted from
// itself, the chunks cross the WAN on k parallel node-to-node flows (n/k
// bytes each instead of n on one), and each site allgathers them.
func (r *Rank) twoSiteBcast(tag, root int, n int64) {
	s := r.w.sites()
	rs := s.of[root]
	local, remote := s.groups[rs], s.groups[1-rs]
	L, h := len(local), indexOf(local, root)
	k := min(L, len(remote))
	chunk, last := n/int64(k), n-n/int64(k)*int64(k-1)
	held := make([]int, L) // held[p]: the chunk local member p holds
	for i := 0; i < k; i++ {
		held[(h+i)%L] = int(chunk)
	}
	held[(h+k-1)%L] = int(last)

	r.fanOut(tag, local, h, h, 1, held)
	if s.of[r.id] == rs {
		p := indexOf(local, r.id)
		if i := (p - h + L) % L; i < k {
			r.csend(remote[i], tag+1, int64(held[p]))
		}
		r.exchange(tag+2, local, h, k, int64(held[p]), nil)
		return
	}
	i, mine := indexOf(remote, r.id), chunk
	if i == k-1 {
		mine = last
	}
	if i < k {
		r.crecv(local[(h+i)%L], tag+1)
	}
	r.exchange(tag+2, remote, 0, k, mine, nil)
}

// Reduce combines n payload bytes from every rank onto root.
func (r *Rank) Reduce(root int, n int) {
	tag := r.startColl("reduce", root, int64(n))
	s := r.w.sites()
	switch r.strategy("reduce", n) {
	case multilevel:
		// Each site reduces onto its gateway, then the gateways onto the
		// root over the WAN.
		me := s.of[r.id]
		r.reduceTree(tag, s.groups[me], s.hub(me, root), int64(n))
		r.reduceTree(tag+1, s.rootGateways(root), s.of[root], int64(n))
	default:
		r.reduceTree(tag, s.all, root, int64(n))
	}
}

// Allreduce combines n payload bytes across all ranks, leaving the result
// everywhere.
func (r *Rank) Allreduce(n int) {
	tag := r.startColl("allreduce", 0, int64(n))
	s := r.w.sites()
	switch r.strategy("allreduce", n) {
	case multilevel:
		// Intra-site reduce onto the gateway, one direct exchange of the
		// site sums between the gateways (the single WAN round: S-1
		// concurrent messages beat the 2·log S serial rounds of
		// reduce+bcast), intra-site broadcast of the result.
		g := s.groups[s.of[r.id]]
		r.reduceTree(tag, g, 0, int64(n))
		if g[0] == r.id {
			S := len(s.gateways)
			r.exchange(tag+20, s.gateways, 0, S, int64(n), nil)
			r.combineCost(int64(S-1) * int64(n))
		}
		r.bcastTree(tag+40, g, 0, int64(n))
	case twoSite:
		r.twoSiteAllreduce(tag, int64(n))
	default:
		r.groupAllreduce(tag, s.all, int64(n))
	}
}

// groupAllreduce leaves the combination of every member's n bytes on all
// of g: recursive doubling on a power-of-two group, else a binomial
// reduce onto g[0] and a broadcast back.
func (r *Rank) groupAllreduce(tag int, g []int, n int64) {
	if isPow2(len(g)) {
		r.recursiveDoubling(tag, g, n)
		return
	}
	r.reduceTree(tag, g, 0, n)
	r.bcastTree(tag+1, g, 0, n)
}

// twoSiteAllreduce is GridMPI's grid-aware Rabenseifner allreduce:
// allreduce inside each site, exchange result chunks pairwise over k
// parallel WAN flows and combine them, then allgather the combined
// chunks inside each site.
func (r *Rank) twoSiteAllreduce(tag int, n int64) {
	s := r.w.sites()
	si := s.of[r.id]
	mine, peer := s.groups[si], s.groups[1-si]
	r.groupAllreduce(tag, mine, n)
	k := min(len(mine), len(peer))
	i, chunk := indexOf(mine, r.id), n/int64(k)
	if i == k-1 {
		chunk = n - chunk*int64(k-1)
	}
	if i < k {
		r.csendrecv(peer[i], tag+32, chunk, peer[i], tag+32)
		r.combineCost(chunk)
	}
	r.exchange(tag+33, mine, 0, k, chunk, nil)
}

// Allgather makes every rank's block of n bytes available everywhere.
func (r *Rank) Allgather(n int) {
	tag := r.startColl("allgather", 0, int64(n))
	s := r.w.sites()
	switch r.strategy("allgather", n) {
	case multilevel:
		// Gather each site's blocks at its gateway, exchange the site
		// bundles between gateways, then broadcast the assembled P·n
		// result inside each site.
		g := s.groups[s.of[r.id]]
		r.fanIn(tag, g, 0, 0, int64(n), nil)
		r.exchange(tag+1, s.gateways, 0, len(s.gateways), int64(len(g))*int64(n), nil)
		r.bcastTree(tag+2, g, 0, int64(r.Size())*int64(n))
	default:
		r.ring(tag, s.all, int64(n), false)
	}
}

// Alltoall exchanges n bytes between every rank pair (each rank sends n to
// every other rank). None of the four implementations optimizes it for the
// grid (§4.3): all post the full isend/irecv storm at once, so a 16-rank
// exchange drives dozens of simultaneous WAN flows into the uplink — the
// oversubscription under which GridMPI's pacing shines and the others
// take contention losses.
func (r *Rank) Alltoall(n int) {
	tag := r.startColl("alltoall", 0, int64(n)*int64(r.Size()))
	s := r.w.sites()
	switch r.strategy("alltoall", n) {
	case multilevel:
		// Members funnel their off-site payload through the gateway,
		// gateways exchange one bundle per site pair (the only WAN phase:
		// S·(S-1) messages instead of the per-rank-pair storm) and deal
		// the inbound bytes back out, and the intra-site exchange runs
		// directly.
		g := s.groups[s.of[r.id]]
		offsite := int64(r.Size()-len(g)) * int64(n)
		if offsite > 0 {
			r.fanIn(tag, g, 0, 0, offsite, nil)
		}
		r.exchange(tag+1, s.gateways, 0, len(s.gateways), int64(len(g))*int64(n), s.sizes)
		if offsite > 0 {
			r.fanOut(tag+2, g, 0, 0, offsite, nil)
		}
		r.shift(tag+3, g, int64(n), nil)
	default:
		r.shift(tag, s.all, int64(n), nil)
	}
}

// Gather collects n bytes from every rank at root.
func (r *Rank) Gather(root int, n int) {
	tag := r.startColl("gather", root, int64(n))
	s := r.w.sites()
	switch r.strategy("gather", n) {
	case multilevel:
		// Members hand their block to the site gateway, and each remote
		// gateway ships its site's bundle to the root in one WAN message.
		me, rs := s.of[r.id], s.of[root]
		h := s.hub(me, root)
		r.fanIn(tag, s.groups[me], h, h, int64(n), nil)
		r.fanIn(tag+1, s.rootGateways(root), rs, rs, int64(n), s.sizes)
	default:
		r.fanIn(tag, s.all, root, 0, int64(n), nil)
	}
}

// Scatter distributes n bytes from root to every rank.
func (r *Rank) Scatter(root int, n int) {
	tag := r.startColl("scatter", root, int64(n))
	s := r.w.sites()
	switch r.strategy("scatter", n) {
	case multilevel:
		// The root ships each remote site its whole bundle via the
		// gateway in one WAN message, then gateways deal the slices.
		me, rs := s.of[r.id], s.of[root]
		h := s.hub(me, root)
		r.fanOut(tag, s.rootGateways(root), rs, rs, int64(n), s.sizes)
		r.fanOut(tag+1, s.groups[me], h, h, int64(n), nil)
	default:
		r.fanOut(tag, s.all, root, 0, int64(n), nil)
	}
}

// Barrier synchronizes all ranks with the dissemination algorithm.
func (r *Rank) Barrier() {
	tag := r.startColl("barrier", 0, 0)
	s := r.w.sites()
	switch r.strategy("barrier", 0) {
	case multilevel:
		// Site members check in at their gateway, the gateways run the
		// dissemination over the WAN, then each gateway releases its site.
		g := s.groups[s.of[r.id]]
		r.reduceTree(tag, g, 0, 1)
		r.dissemination(tag+1, s.gateways)
		r.bcastTree(tag+40, g, 0, 1)
	default:
		r.dissemination(tag, s.all)
	}
}

// --- small helpers ---

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
