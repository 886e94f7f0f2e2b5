package mpi

// Vector collectives and scan-class operations: one flat algorithm each,
// under every strategy. The paper singles out MPI_Gatherv / MPI_Scatterv
// / MPI_Alltoallv as the operations MPICH-G2 leaves topology-unaware
// (§2.1.5); all implementations here use the straightforward linear
// algorithms their TCP devices used.

// Gatherv collects sizes[i] bytes from rank i at root (sizes must be the
// same slice contents on every rank, as in MPI).
func (r *Rank) Gatherv(root int, sizes []int) {
	tag := r.startColl("gatherv", root, sum(sizes))
	r.fanIn(tag, r.w.sites().all, root, 0, 1, sizes)
}

// Scatterv distributes sizes[i] bytes from root to rank i.
func (r *Rank) Scatterv(root int, sizes []int) {
	tag := r.startColl("scatterv", root, sum(sizes))
	r.fanOut(tag, r.w.sites().all, root, 0, 1, sizes)
}

// Alltoallv is Alltoall with per-destination sizes; sizes[i] is what this
// rank sends to rank i (sizes must agree pairwise across ranks, as in MPI).
func (r *Rank) Alltoallv(sizes []int) {
	tag := r.startColl("alltoallv", 0, sum(sizes))
	r.shift(tag, r.w.sites().all, 1, sizes)
}

// ReduceScatter combines n bytes across all ranks and leaves each rank
// its n/P block: a ring reduce-scatter (P-1 steps of n/P bytes), the
// first half of the Rabenseifner allreduce.
func (r *Rank) ReduceScatter(n int) {
	tag := r.startColl("reducescatter", 0, int64(n))
	r.ring(tag, r.w.sites().all, max(int64(n)/int64(r.Size()), 1), true)
}

// Scan computes a prefix reduction: rank i receives the combination of
// ranks 0..i. The linear algorithm passes partial results up the rank
// order.
func (r *Rank) Scan(n int) {
	tag := r.startColl("scan", 0, int64(n))
	if r.id > 0 {
		r.crecv(r.id-1, tag)
		r.combineCost(int64(n))
	}
	if r.id < r.Size()-1 {
		r.csend(r.id+1, tag, int64(n))
	}
}

func sum(sizes []int) int64 {
	var total int64
	for _, s := range sizes {
		total += int64(s)
	}
	return total
}
