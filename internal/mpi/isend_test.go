package mpi

import (
	"runtime"
	"testing"

	"repro/internal/tcpsim"
)

// TestNonblockingSendsSpawnNoProcess: a 16-rank world runs an Isend
// storm and a flat Alltoall (whose exchange is the collectives'
// nonblocking sends), and while its kernel is open the process holds
// exactly one more goroutine per rank: each rank body's coroutine
// (iter.Pull coroutines count as goroutines), and none per message.
func TestNonblockingSendsSpawnNoProcess(t *testing.T) {
	base := runtime.NumGoroutine()
	k, w := newWorld(t, Reference(), tcpsim.DefaultLinux26(), 8, true)
	const ranks = 16
	if w.Size() != ranks {
		t.Fatalf("world has %d ranks, want %d", w.Size(), ranks)
	}
	peak := 0
	sample := func() { peak = max(peak, runtime.NumGoroutine()-base) }
	_, err := w.Run(func(r *Rank) {
		reqs := make([]*Request, 0, 2*(ranks-1))
		for peer := range ranks {
			if peer != r.Rank() {
				reqs = append(reqs, r.Isend(peer, 1, 64<<10), r.Irecv(peer, 1))
			}
		}
		sample() // every Isend of this rank is in flight
		r.WaitAll(reqs...)
		r.Alltoall(4 << 10)
		sample()
	})
	sample()
	k.Close()
	if err != nil {
		t.Fatal(err)
	}
	if peak != ranks {
		t.Fatalf("the open kernel held %d goroutines beyond the test's, want exactly its %d ranks", peak, ranks)
	}
}
