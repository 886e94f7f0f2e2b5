package mpi

// Group kernels: the building blocks every collective strategy is
// sequenced from. Each runs over the member list g as given; ranks not
// in g do nothing. Rooted kernels take the hub's position h in g and
// count members from it, so a root anywhere in g needs no reordered
// copy. Where a kernel posts several requests, the order in which it
// posts them is part of the executed event stream and is stated.

// vrank is id's position in g counted from position h, or -1 when id is
// not a member.
func vrank(g []int, h, id int) int {
	p := indexOf(g, id)
	if p < 0 {
		return -1
	}
	return (p - h + len(g)) % len(g)
}

// weighted is the bytes a kernel moves to or from the member at
// position p: n, times w[p] when the weights w are set.
func weighted(n int64, w []int, p int) int64 {
	if w == nil {
		return n
	}
	return n * int64(w[p])
}

// bcastTree broadcasts n bytes from g[h] down a binomial tree over g.
func (r *Rank) bcastTree(tag int, g []int, h int, n int64) {
	P, v := len(g), vrank(g, h, r.id)
	if v < 0 {
		return
	}
	mask := 1
	for mask < P {
		if v&mask != 0 {
			r.crecv(g[(v&^mask+h)%P], tag)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if v+mask < P {
			r.csend(g[(v+mask+h)%P], tag, n)
		}
	}
}

// reduceTree combines n bytes from every member of g onto g[h] up a
// binomial tree.
func (r *Rank) reduceTree(tag int, g []int, h int, n int64) {
	P, v := len(g), vrank(g, h, r.id)
	if v < 0 {
		return
	}
	for mask := 1; mask < P; mask <<= 1 {
		if v&mask != 0 {
			r.csend(g[(v&^mask+h)%P], tag, n)
			return
		}
		if child := v | mask; child < P {
			r.crecv(g[(child+h)%P], tag)
			r.combineCost(n)
		}
	}
}

// recursiveDoubling allreduces n bytes over a power-of-two group; each
// round exchanges the full payload with a partner.
func (r *Rank) recursiveDoubling(tag int, g []int, n int64) {
	me := indexOf(g, r.id)
	if me < 0 {
		return
	}
	for mask := 1; mask < len(g); mask <<= 1 {
		partner := g[me^mask]
		r.csendrecv(partner, tag, n, partner, tag)
		r.combineCost(n)
		tag++
	}
}

// dissemination is the barrier over g: round i signals the member 2^i
// positions to the right and hears from the one 2^i to the left.
func (r *Rank) dissemination(tag int, g []int) {
	me, S := indexOf(g, r.id), len(g)
	if me < 0 {
		return
	}
	for mask := 1; mask < S; mask <<= 1 {
		r.csendrecv(g[(me+mask)%S], tag, 1, g[(me-mask+S)%S], tag)
		tag++
	}
}

// ring runs len(g)-1 steps, each passing n bytes to the right neighbour
// and receiving from the left one.
func (r *Rank) ring(tag int, g []int, n int64) {
	me, P := indexOf(g, r.id), len(g)
	if me < 0 {
		return
	}
	right, left := g[(me+1)%P], g[(me-1+P)%P]
	for step := 0; step < P-1; step++ {
		r.csendrecv(right, tag+step, n, left, tag+step)
	}
}

// fanIn gathers at the hub g[h]: every other member sends it
// weighted(n, w, p) bytes, except members weighted 0 or less, which take
// no part. The hub posts every receive in position order from start,
// then waits for them all.
func (r *Rank) fanIn(tag int, g []int, h, start int, n int64, w []int) {
	if r.id != g[h] {
		if p := indexOf(g, r.id); p >= 0 && (w == nil || w[p] > 0) {
			r.csend(g[h], tag, weighted(n, w, p))
		}
		return
	}
	reqs := make([]*Request, 0, len(g)-1)
	for j := range g {
		if p := (start + j) % len(g); p != h && (w == nil || w[p] > 0) {
			reqs = append(reqs, r.cirecv(g[p], tag))
		}
	}
	r.WaitAll(reqs...)
}

// fanOut is fanIn reversed: the hub g[h] posts a send of weighted(n, w, p)
// bytes to every other member in position order from start, then waits
// for them all; members weighted 0 or less take no part.
func (r *Rank) fanOut(tag int, g []int, h, start int, n int64, w []int) {
	if r.id != g[h] {
		if p := indexOf(g, r.id); p >= 0 && (w == nil || w[p] > 0) {
			r.crecv(g[h], tag)
		}
		return
	}
	reqs := make([]*Request, 0, len(g)-1)
	for j := range g {
		if p := (start + j) % len(g); p != h && (w == nil || w[p] > 0) {
			reqs = append(reqs, r.cisend(g[p], tag, weighted(n, w, p)))
		}
	}
	r.WaitAll(reqs...)
}

// exchange spreads blocks over g: the k members at positions start,
// start+1, … each send every other member weighted(n, w, p) bytes, and
// every member receives from those k. A member posts all its receives,
// then all its sends, each in position order from start, then waits for
// all.
func (r *Rank) exchange(tag int, g []int, start, k int, n int64, w []int) {
	me, L := indexOf(g, r.id), len(g)
	if me < 0 {
		return
	}
	reqs := make([]*Request, 0, 2*(L-1))
	for j := 0; j < k; j++ {
		if p := (start + j) % L; p != me {
			reqs = append(reqs, r.cirecv(g[p], tag))
		}
	}
	if (me-start+L)%L < k {
		for j := 0; j < L; j++ {
			if p := (start + j) % L; p != me {
				reqs = append(reqs, r.cisend(g[p], tag, weighted(n, w, p)))
			}
		}
	}
	r.WaitAll(reqs...)
}

// shift is the personalized all-to-all over g: every member sends
// weighted(n, w, p) bytes to every other. It posts receives from the
// members 1, 2, … positions to its left, then sends to those 1, 2, … to
// its right, then waits for all.
func (r *Rank) shift(tag int, g []int, n int64, w []int) {
	me, L := indexOf(g, r.id), len(g)
	if me < 0 {
		return
	}
	reqs := make([]*Request, 0, 2*(L-1))
	for s := 1; s < L; s++ {
		reqs = append(reqs, r.cirecv(g[(me-s+L)%L], tag))
	}
	for s := 1; s < L; s++ {
		p := (me + s) % L
		reqs = append(reqs, r.cisend(g[p], tag, weighted(n, w, p)))
	}
	r.WaitAll(reqs...)
}
