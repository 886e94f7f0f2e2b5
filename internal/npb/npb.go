// Package npb implements communication skeletons of the eight NAS Parallel
// Benchmarks 2.4 the paper runs (class B, 4 or 16 ranks): each skeleton
// replays the benchmark's communication pattern — message sizes, counts,
// partners, and collective operations calibrated against the paper's
// Table 2 — interleaved with compute phases calibrated against published
// class-B behaviour on the testbed's 2–2.2 GHz Opterons.
//
// Skeletons are what the paper's Figures 10–13 need: they are *relative*
// measurements (implementation vs implementation, grid vs cluster), which
// depend on the communication structure and the comm/compute ratio, not on
// the numerics being computed.
package npb

import (
	"fmt"
	"time"

	"repro/internal/mpi"
)

// Names in the paper's presentation order.
var Names = []string{"EP", "CG", "MG", "LU", "SP", "BT", "IS", "FT"}

// Params configures one skeleton run.
type Params struct {
	// NP is the number of ranks: 4 or 16 in the paper's experiments.
	NP int
	// Scale multiplies iteration counts (1.0 = full class B); tests use
	// small scales for speed. Iteration counts round up to at least 1.
	Scale float64
}

func (p Params) iters(full int) int {
	// The outer float64 rounds the product, so no architecture fuses it
	// with the addition into one multiply-add (see tcpsim's Flow.bdp).
	n := int(float64(float64(full)*p.Scale) + 0.999)
	if n < 1 {
		return 1
	}
	if n > full {
		return full
	}
	return n
}

// Spec is one benchmark skeleton.
type Spec struct {
	Name string
	// Work is the total class-B compute on the reference CPU, divided
	// evenly among ranks.
	Work time.Duration
	// FullIters is the class-B iteration count Scale multiplies.
	FullIters int
	Run       func(r *mpi.Rank, p Params)
}

// Get returns the named benchmark skeleton.
func Get(name string) Spec {
	for _, s := range Suite() {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("npb: unknown benchmark %q", name))
}

// Suite returns all eight skeletons in order.
func Suite() []Spec {
	return []Spec{
		{"EP", 100 * time.Second, 1, runEP},
		{"CG", 510 * time.Second, 75, runCG},
		{"MG", 36 * time.Second, 20, runMG},
		{"LU", 320 * time.Second, 250, runLU},
		{"SP", 380 * time.Second, 400, runSP},
		{"BT", 450 * time.Second, 200, runBT},
		{"IS", 25 * time.Second, 11, runIS},
		{"FT", 90 * time.Second, 20, runFT},
	}
}

// stepTime slices a benchmark's total work into per-iteration compute using
// the *full* class-B iteration count, so scaled-down runs keep the same
// comm/compute ratio per iteration.
func stepTime(spec Spec, np, slicesPerIter int) time.Duration {
	return time.Duration(float64(spec.Work) / float64(np) / float64(spec.FullIters*slicesPerIter))
}

// --- process-grid helpers ---

// gridDims returns the 2D logical process grid (rows × cols) used by CG,
// LU, SP and BT: 4×4 for 16 ranks, 2×2 for 4.
func gridDims(np int) (rows, cols int) {
	switch np {
	case 16:
		return 4, 4
	case 4:
		return 2, 2
	case 2:
		return 1, 2
	case 1:
		return 1, 1
	default:
		// Fall back to a single row; keeps small test worlds working.
		return 1, np
	}
}

func rowCol(id, cols int) (row, col int) { return id / cols, id % cols }

// dotProduct models the recursive-doubling global sum CG and MG use for
// dot products / norms: log2(np) point-to-point exchanges of 8 bytes.
func dotProduct(r *mpi.Rank, tag int) {
	np := r.Size()
	for mask := 1; mask < np; mask <<= 1 {
		partner := r.Rank() ^ mask
		if partner < np {
			exchange(r, partner, tag+mask, 8)
		}
	}
}

// exchange is a symmetric sendrecv of n bytes with a partner.
func exchange(r *mpi.Rank, partner, tag, n int) {
	req := r.Isend(partner, tag, n)
	r.Recv(partner, tag)
	r.Wait(req)
}

// --- EP: embarrassingly parallel ---
//
// Table 2: 192 × 8 B + 68 × 80 B point-to-point messages over the whole
// job — a long compute phase followed by a handful of tiny global sums.
func runEP(r *mpi.Rank, p Params) {
	spec := Get("EP")
	r.Compute(time.Duration(float64(spec.Work) / float64(r.Size())))
	// 12 scalar sums of 8 B and 4 vector sums of 80 B, as trees of
	// point-to-point messages: (np-1) messages each.
	for i := 0; i < 12; i++ {
		treeReduce(r, 100+i*4, 8)
	}
	for i := 0; i < 4; i++ {
		treeReduce(r, 200+i*4, 80)
	}
}

// treeReduce is a binomial reduction to rank 0 using user-level messages.
func treeReduce(r *mpi.Rank, tag, n int) {
	np := r.Size()
	id := r.Rank()
	for mask := 1; mask < np; mask <<= 1 {
		if id&mask != 0 {
			r.Send(id&^mask, tag, n)
			return
		}
		if id|mask < np {
			r.Recv(id|mask, tag)
		}
	}
}

// --- CG: conjugate gradient ---
//
// Table 2: 126479 × 8 B + 86944 × 147 kB. Per inner iteration each rank
// exchanges its boundary vector with a transpose partner three times
// (147456 B = 18432 doubles, the class-B n/4 row block) and performs one
// recursive-doubling dot product (log2(np) × 8 B).
func runCG(r *mpi.Rank, p Params) {
	spec := Get("CG")
	const inner = 25
	outer := p.iters(spec.FullIters)
	rows, cols := gridDims(r.Size())
	row, col := rowCol(r.Rank(), cols)
	// Transpose partner. Diagonal ranks are their own transpose; they pair
	// with the next diagonal rank instead (a symmetric perfect matching),
	// so every rank takes part in the heavy exchange.
	partner := col*rows + row
	if partner == r.Rank() {
		d := row ^ 1
		if d < rows && d < cols {
			partner = d*cols + d
		}
	}
	msg := 147456
	if r.Size() == 4 {
		msg = 294912 // n/2 row block on a 2×2 grid
	}
	step := stepTime(spec, r.Size(), inner)
	for it := 0; it < outer; it++ {
		for in := 0; in < inner; in++ {
			r.Compute(step)
			if partner != r.Rank() {
				for x := 0; x < 3; x++ {
					exchange(r, partner, 1000+x, msg)
				}
			}
			dotProduct(r, 2000)
		}
	}
}

// --- MG: multigrid ---
//
// Table 2: 50809 messages of 4 B to 130 kB. Each V-cycle visits the level
// hierarchy down and up, exchanging halo faces with up to three neighbours
// (x, y, z) at every level, plus two residual-norm global sums per cycle.
func runMG(r *mpi.Rank, p Params) {
	spec := Get("MG")
	cycles := p.iters(spec.FullIters)
	levels := []int{130 << 10, 33 << 10, 8 << 10, 2 << 10, 512, 128, 32, 8}
	np := r.Size()
	neighbours := mgNeighbours(r.Rank(), np)
	visit := func(size, tagBase int) {
		for _, nb := range neighbours {
			// Symmetric pair-keyed tags (see runFaceExchange).
			lo := r.Rank()
			if nb < lo {
				lo = nb
			}
			for x := 0; x < 3; x++ {
				exchange(r, nb, tagBase+lo*4+x, size)
			}
		}
	}
	step := stepTime(spec, np, 2*len(levels))
	for c := 0; c < cycles; c++ {
		for li := 0; li < len(levels); li++ { // down
			r.Compute(step)
			visit(levels[li], 3000+li*128)
		}
		for li := len(levels) - 1; li >= 0; li-- { // up
			r.Compute(step)
			visit(levels[li], 8000+li*128)
		}
		dotProduct(r, 5000)
		dotProduct(r, 5200)
	}
}

// mgNeighbours returns the 3D halo partners: x (±1 in rank space), y (±2),
// z (across the site split, np/2 away).
func mgNeighbours(id, np int) []int {
	var out []int
	for _, mask := range []int{1, 2, np / 2} {
		if mask == 0 {
			continue
		}
		nb := id ^ mask
		if nb < np && nb != id && !containsInt(out, nb) {
			out = append(out, nb)
		}
	}
	return out
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// --- LU: SSOR wavefront ---
//
// Table 2: 1.2 M messages of ~1 kB. Each iteration performs a south-east
// then a north-west wavefront sweep over the 2D process grid, one ~1 kB
// message per plane per direction — the pipelined pattern whose latency
// tolerance makes LU the best grid citizen among the communicating codes.
func runLU(r *mpi.Rank, p Params) {
	spec := Get("LU")
	iters := p.iters(spec.FullIters)
	const planes = 100
	const msg = 1000
	rows, cols := gridDims(r.Size())
	row, col := rowCol(r.Rank(), cols)
	north := r.Rank() - cols
	south := r.Rank() + cols
	west := r.Rank() - 1
	east := r.Rank() + 1
	hasN, hasS := row > 0, row < rows-1
	hasW, hasE := col > 0, col < cols-1
	step := stepTime(spec, r.Size(), 2*planes)
	for it := 0; it < iters; it++ {
		for pl := 0; pl < planes; pl++ { // lower-triangular sweep (SE)
			if hasN {
				r.Recv(north, 6000+pl%16)
			}
			if hasW {
				r.Recv(west, 6100+pl%16)
			}
			r.Compute(step)
			if hasS {
				r.Send(south, 6000+pl%16, msg)
			}
			if hasE {
				r.Send(east, 6100+pl%16, msg)
			}
		}
		for pl := 0; pl < planes; pl++ { // upper-triangular sweep (NW)
			if hasS {
				r.Recv(south, 6200+pl%16)
			}
			if hasE {
				r.Recv(east, 6300+pl%16)
			}
			r.Compute(step)
			if hasN {
				r.Send(north, 6200+pl%16, msg)
			}
			if hasW {
				r.Send(west, 6300+pl%16, msg)
			}
		}
	}
}

// --- SP and BT: ADI face exchanges ---
//
// Table 2: SP 57744 × ~50 kB + 96336 × 100–160 kB over 400 iterations;
// BT 28944 × 26 kB + 48336 × 146–156 kB over 200. Per iteration each rank
// exchanges with its grid neighbours: three small and five large messages
// per directed edge. The large messages (152 kB) are what overflow
// MPICH-Madeleine's fast buffer on the WAN.
func runSP(r *mpi.Rank, p Params) { runFaceExchange(r, p, Get("SP"), 50<<10, 152<<10) }
func runBT(r *mpi.Rank, p Params) { runFaceExchange(r, p, Get("BT"), 26<<10, 152<<10) }

func runFaceExchange(r *mpi.Rank, p Params, spec Spec, small, big int) {
	iters := p.iters(spec.FullIters)
	rows, cols := gridDims(r.Size())
	if r.Size() == 4 {
		// A 2×2 decomposition halves the cuts: faces are twice as large
		// as on the 4×4 grid the Table 2 sizes correspond to.
		small *= 2
		big *= 2
	}
	row, col := rowCol(r.Rank(), cols)
	// Each ADI sweep exchanges faces only in its own dimension; the z
	// dimension is not decomposed on a 2D process grid, so the z sweep is
	// compute-only.
	var xNbrs, yNbrs []int
	if col > 0 {
		xNbrs = append(xNbrs, r.Rank()-1)
	}
	if col < cols-1 {
		xNbrs = append(xNbrs, r.Rank()+1)
	}
	if row > 0 {
		yNbrs = append(yNbrs, r.Rank()-cols)
	}
	if row < rows-1 {
		yNbrs = append(yNbrs, r.Rank()+cols)
	}
	sweep := func(d int, nbrs []int) {
		for _, nb := range nbrs {
			// Tags must be identical on both sides of an edge, so key
			// them by the pair (via the smaller rank), not by the local
			// neighbour index. Three small and five large exchanges per
			// directed edge per iteration match Table 2's counts.
			lo := r.Rank()
			if nb < lo {
				lo = nb
			}
			base := 7000 + d*1000 + lo*16
			for x := 0; x < 3; x++ {
				exchange(r, nb, base+x, small)
			}
			for x := 0; x < 5; x++ {
				exchange(r, nb, base+4+x, big)
			}
		}
	}
	step := stepTime(spec, r.Size(), 3)
	for it := 0; it < iters; it++ {
		r.Compute(step)
		sweep(0, xNbrs)
		r.Compute(step)
		sweep(1, yNbrs)
		r.Compute(step) // z sweep: local
	}
}

// --- IS: integer sort ---
//
// Table 2: 176 × 1 kB + 176 × 30 MB collectives: per iteration one small
// Allreduce (bucket counts) and one huge Alltoallv (key redistribution,
// ~30 MB per rank). The paper notes GridMPI only optimizes the Allreduce,
// which is why IS stays slow on the grid.
func runIS(r *mpi.Rank, p Params) {
	spec := Get("IS")
	iters := p.iters(spec.FullIters)
	np := r.Size()
	sizes := make([]int, np)
	for i := range sizes {
		if i != r.Rank() {
			sizes[i] = 30 << 20 / (np - 1)
		}
	}
	step := stepTime(spec, np, 1)
	for it := 0; it < iters; it++ {
		r.Compute(step)
		r.Allreduce(1 << 10)
		r.Alltoallv(sizes)
	}
}

// --- FT: 3D FFT ---
//
// The paper attributes FT's grid behaviour to MPI_Bcast (§3.1, §4.3): we
// model each iteration as a large broadcast of the evolved source term
// plus a small checksum Allreduce. GridMPI's van de Geijn broadcast is
// what gives it the paper's large FT speedup on the grid.
func runFT(r *mpi.Rank, p Params) {
	spec := Get("FT")
	iters := p.iters(spec.FullIters)
	step := stepTime(spec, r.Size(), 1)
	for it := 0; it < iters; it++ {
		r.Compute(step)
		r.Bcast(0, 32<<20)
		r.Allreduce(1 << 10)
	}
}
