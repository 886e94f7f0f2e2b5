package mpi

import (
	"testing"
	"time"

	"repro/internal/tcpsim"
)

// runColl executes body on a world and fails the test on deadlock/timeout.
func runColl(t *testing.T, prof Profile, perSite int, grid bool, body func(r *Rank)) time.Duration {
	t.Helper()
	k, w := newWorld(t, prof, tcpsim.Tuned4MB(), perSite, grid)
	defer k.Close()
	elapsed, err := w.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	return elapsed
}

func TestBcastCompletesAllShapes(t *testing.T) {
	for _, perSite := range []int{1, 2, 4} {
		for _, root := range []int{0, 1} {
			root, perSite := root, perSite
			done := make(map[int]bool)
			runColl(t, Reference(), perSite, true, func(r *Rank) {
				r.Bcast(root, 64<<10)
				done[r.Rank()] = true
			})
			if len(done) != 2*perSite {
				t.Fatalf("perSite=%d root=%d: only %d ranks finished bcast", perSite, root, len(done))
			}
		}
	}
}

func TestGridBcastBeatsBinomialOnWAN(t *testing.T) {
	const n = 4 << 20
	body := func(r *Rank) { r.Bcast(0, n) }
	plain := Reference()
	gridAware := Reference()
	gridAware.GridCollectives = true
	tBinomial := runColl(t, plain, 8, true, body)
	tGrid := runColl(t, gridAware, 8, true, body)
	if tGrid >= tBinomial {
		t.Fatalf("grid bcast (%v) not faster than binomial (%v) for %d bytes on 8+8", tGrid, tBinomial, n)
	}
	if ratio := float64(tBinomial) / float64(tGrid); ratio < 1.3 {
		t.Fatalf("grid bcast speedup = %.2f, want ≥1.3", ratio)
	}
}

func TestGridBcastFallsBackForSmallMessages(t *testing.T) {
	// Below gridCollMin the grid algorithm is skipped; both configurations
	// must produce identical latency-bound behaviour.
	body := func(r *Rank) { r.Bcast(0, 1024) }
	plain := runColl(t, Reference(), 4, true, body)
	aware := Reference()
	aware.GridCollectives = true
	grid := runColl(t, aware, 4, true, body)
	if plain != grid {
		t.Fatalf("small bcast differs: plain %v vs grid-aware %v", plain, grid)
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	finished := 0
	runColl(t, Reference(), 4, true, func(r *Rank) {
		r.Reduce(0, 32<<10)
		r.Allreduce(32 << 10)
		finished++
	})
	if finished != 8 {
		t.Fatalf("finished = %d", finished)
	}
}

func TestGridAllreduceBeatsRecursiveDoubling(t *testing.T) {
	const n = 4 << 20
	body := func(r *Rank) { r.Allreduce(n) }
	plain := runColl(t, Reference(), 8, true, body)
	aware := Reference()
	aware.GridCollectives = true
	grid := runColl(t, aware, 8, true, body)
	if grid >= plain {
		t.Fatalf("grid allreduce (%v) not faster than recursive doubling (%v)", grid, plain)
	}
}

func TestAllreduceNonPowerOfTwoFallback(t *testing.T) {
	// 3 ranks per site = 6 ranks: exercises the reduce+bcast fallback.
	count := 0
	runColl(t, Reference(), 3, true, func(r *Rank) {
		r.Allreduce(8 << 10)
		count++
	})
	if count != 6 {
		t.Fatalf("count = %d", count)
	}
}

func TestAlltoallAndAlltoallv(t *testing.T) {
	runColl(t, Reference(), 2, true, func(r *Rank) {
		r.Alltoall(16 << 10)
		sizes := make([]int, r.Size())
		for i := range sizes {
			sizes[i] = 1024 * (r.Rank() + i + 1) // pairwise-consistent? no — see below
		}
		// Alltoallv requires sizes[i] on rank r to match what rank i
		// expects from r; using a symmetric formula keeps that true.
		for i := range sizes {
			sizes[i] = 1024 * ((r.Rank() + i) % r.Size())
		}
		r.Alltoallv(sizes)
	})
}

func TestGatherScatterBarrier(t *testing.T) {
	var afterBarrier []time.Duration
	runColl(t, Reference(), 2, true, func(r *Rank) {
		r.Scatter(0, 8<<10)
		r.Gather(0, 8<<10)
		r.Barrier()
		afterBarrier = append(afterBarrier, time.Duration(r.Now()))
	})
	if len(afterBarrier) != 4 {
		t.Fatalf("ranks past barrier = %d", len(afterBarrier))
	}
	// All ranks leave the barrier within one WAN round trip of each other.
	minT, maxT := afterBarrier[0], afterBarrier[0]
	for _, v := range afterBarrier {
		if v < minT {
			minT = v
		}
		if v > maxT {
			maxT = v
		}
	}
	if maxT-minT > 15*time.Millisecond {
		t.Fatalf("barrier exit skew = %v", maxT-minT)
	}
}

func TestAllgatherCompletes(t *testing.T) {
	n := 0
	runColl(t, Reference(), 4, true, func(r *Rank) {
		r.Allgather(64 << 10)
		n++
	})
	if n != 8 {
		t.Fatalf("n = %d", n)
	}
}

func TestCollectiveStatsRecordedOncePerCall(t *testing.T) {
	k, w := newWorld(t, Reference(), tcpsim.Tuned4MB(), 2, true)
	defer k.Close()
	if _, err := w.Run(func(r *Rank) {
		r.Bcast(0, 1000)
		r.Bcast(1, 1000)
		r.Allreduce(500)
		r.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if got := s.CollCalls("bcast"); got != 2 {
		t.Fatalf("bcast calls = %d, want 2", got)
	}
	if got := s.CollCalls("allreduce"); got != 1 {
		t.Fatalf("allreduce calls = %d, want 1", got)
	}
	if got := s.CollCalls("barrier"); got != 1 {
		t.Fatalf("barrier calls = %d, want 1", got)
	}
	// Collective-internal traffic must not pollute the p2p census.
	if s.P2PSends != 0 {
		t.Fatalf("collectives leaked %d messages into the p2p census", s.P2PSends)
	}
}

// TestGridAllreduceUnevenSites: the two-site allreduce completes on 5+3
// sites, where each site's phase is a reduce+bcast over that site alone
// because its size is not a power of two.
func TestGridAllreduceUnevenSites(t *testing.T) {
	prof := Reference()
	prof.GridCollectives = true
	for _, n := range []int{64 << 10, 1 << 20} {
		k, w := newLayoutWorld(t, prof, mlLayouts[1].layout)
		if _, err := w.Run(func(r *Rank) { r.Allreduce(n) }); err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		k.Close()
	}
}
