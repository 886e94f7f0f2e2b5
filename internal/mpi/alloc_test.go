package mpi

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// skipIfRace skips allocation-count tests under the race detector, whose
// instrumentation allocates on its own.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
}

// TestMpiHotPathAllocFree locks the whole message arena end to end: a
// steady-state eager ping-pong (Isend + Recv + Wait per rank per round)
// must run at zero allocations once the pools are warm — Requests,
// messages and send jobs all recycle through the World's free lists, and
// each Isend's protocol runs as kernel events with the send job as
// their argument, no process of its own.
func TestMpiHotPathAllocFree(t *testing.T) {
	skipIfRace(t)
	k, w := newWorld(t, Reference(), tcpsim.DefaultLinux26(), 1, false)
	defer k.Close()
	const tag, size = 7, 1024 // well under the eager threshold
	r0, r1 := w.ranks[0], w.ranks[1]
	r0.proc = k.Go("rank0", func(p *sim.Proc) {
		for {
			req := r0.Isend(1, tag, size)
			r0.Recv(1, tag)
			r0.Wait(req)
		}
	})
	r1.proc = k.Go("rank1", func(p *sim.Proc) {
		for {
			req := r1.Isend(0, tag, size)
			r1.Recv(0, tag)
			r1.Wait(req)
		}
	})
	for i := 0; i < 64; i++ { // warm the pools, flows and kernel slab
		k.RunUntil(k.Now() + time.Millisecond)
	}
	allocs := testing.AllocsPerRun(100, func() {
		k.RunUntil(k.Now() + time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Isend/Recv/Wait allocates %v per ms of traffic, want 0", allocs)
	}
}

// TestMpiLargeMessageAllocFree locks the blocked-writer path end to end:
// a steady-state 4 MiB rendezvous ping-pong between Rennes and Nancy
// keeps every payload write blocked on the send buffer for dozens of
// window rounds, and the refills, the writer's park and resume and the
// rendezvous's RTS, CTS and payload must allocate nothing once the pools
// are warm.
func TestMpiLargeMessageAllocFree(t *testing.T) {
	skipIfRace(t)
	k, w := newWorld(t, Reference(), tcpsim.DefaultLinux26(), 1, true)
	defer k.Close()
	const tag, size = 7, 4 << 20 // far over the eager threshold
	r0, r1 := w.ranks[0], w.ranks[1]
	roundTrips := 0
	r0.proc = k.Go("rank0", func(p *sim.Proc) {
		for {
			r0.Send(1, tag, size)
			r0.Recv(1, tag)
			roundTrips++
		}
	})
	r1.proc = k.Go("rank1", func(p *sim.Proc) {
		for {
			r1.Recv(0, tag)
			r1.Send(0, tag, size)
		}
	})
	for i := 0; i < 16; i++ { // warm the pools, flows and kernel slab
		k.RunUntil(k.Now() + time.Second)
	}
	warm := roundTrips
	allocs := testing.AllocsPerRun(20, func() {
		k.RunUntil(k.Now() + time.Second)
	})
	if roundTrips == warm {
		t.Fatal("no round trip completed while measuring")
	}
	if allocs != 0 {
		t.Fatalf("steady-state 4 MiB Send/Recv allocates %v per s of traffic, want 0", allocs)
	}
}

// steadyAllocs runs k in steps of step until every pool, flow and the
// kernel's slab are warm, then returns the allocations per further step
// and fails if progress() did not move while it measured.
func steadyAllocs(t *testing.T, k *sim.Kernel, step time.Duration, progress func() int) float64 {
	t.Helper()
	for i := 0; i < 32; i++ {
		k.RunUntil(k.Now() + step)
	}
	before := progress()
	allocs := testing.AllocsPerRun(20, func() { k.RunUntil(k.Now() + step) })
	if progress() == before {
		t.Fatal("no message completed while measuring")
	}
	return allocs
}

// TestMpiIsendRendezvousAllocFree locks the nonblocking rendezvous
// chain: a steady-state exchange of 64 KiB Isends over the rendezvous
// protocol — RTS write, CTS wait, payload write, each a kernel event on
// the pooled send job — allocates nothing.
func TestMpiIsendRendezvousAllocFree(t *testing.T) {
	skipIfRace(t)
	prof := Reference()
	prof.EagerThreshold = 16 << 10
	k, w := newWorld(t, prof, tcpsim.Tuned4MB(), 1, true)
	defer k.Close()
	rounds := 0
	for i, r := range w.ranks {
		r.proc = k.Go("rank", func(p *sim.Proc) {
			for {
				req := r.Isend(1-i, 1, 64<<10)
				r.Recv(1-i, 1)
				r.Wait(req)
				rounds++
			}
		})
	}
	if allocs := steadyAllocs(t, k, 100*time.Millisecond, func() int { return rounds }); allocs != 0 {
		t.Fatalf("steady-state rendezvous Isend/Recv/Wait allocates %v per 100 ms, want 0", allocs)
	}
}

// TestMpiSerialRendezvousAllocFree locks a contended serial rendezvous
// (MPICH-Madeleine): four rendezvous Isends per round to one peer queue
// on the pair's lock as callback waiters, and the handoffs allocate
// nothing once the lock's queue has grown.
func TestMpiSerialRendezvousAllocFree(t *testing.T) {
	skipIfRace(t)
	k, w := newWorld(t, madeleine(), tcpsim.Tuned4MB(), 1, true)
	defer k.Close()
	const burst = 4
	rounds := 0
	sends, recvs := make([]*Request, burst), make([]*Request, burst)
	r0, r1 := w.ranks[0], w.ranks[1]
	r0.proc = k.Go("rank0", func(p *sim.Proc) {
		for {
			for i := range sends {
				sends[i] = r0.Isend(1, 1, 140<<10)
			}
			r0.WaitAll(sends...)
			r0.Recv(1, 2)
			rounds++
		}
	})
	r1.proc = k.Go("rank1", func(p *sim.Proc) {
		for {
			for i := range recvs {
				recvs[i] = r1.Irecv(0, 1)
			}
			r1.WaitAll(recvs...)
			r1.Send(0, 2, 8)
		}
	})
	if allocs := steadyAllocs(t, k, time.Second, func() int { return rounds }); allocs != 0 {
		t.Fatalf("steady-state serial rendezvous Isends allocate %v per s, want 0", allocs)
	}
}

// TestMpiStripedIsendAllocFree locks MPICH-G2's striping: a steady-state
// 2 MiB Isend over the WAN splits into four lane writes on a pooled
// countdown record, with no process, closure or Signal per message.
func TestMpiStripedIsendAllocFree(t *testing.T) {
	skipIfRace(t)
	k, w := newWorld(t, mpichG2().WithEagerThreshold(Infinite), tcpsim.DefaultLinux26(), 1, true)
	defer k.Close()
	rounds := 0
	r0, r1 := w.ranks[0], w.ranks[1]
	r0.proc = k.Go("rank0", func(p *sim.Proc) {
		for {
			r0.Wait(r0.Isend(1, 1, 2<<20))
			r0.Recv(1, 2)
			rounds++
		}
	})
	r1.proc = k.Go("rank1", func(p *sim.Proc) {
		for {
			r1.Recv(0, 1)
			r1.Send(0, 2, 8)
		}
	})
	if allocs := steadyAllocs(t, k, time.Second, func() int { return rounds }); allocs != 0 {
		t.Fatalf("steady-state striped 2 MiB Isends allocate %v per s, want 0", allocs)
	}
}

// TestArenaRecycling checks that the pools cycle and that every message
// record is recycled exactly once, for each way a message crosses the
// wire: on Rennes–Nancy under the reference, MPICH-Madeleine (serial
// rendezvous, fast-buffer slot) and MPICH-G2 (striped payloads), rank 0
// sends an eager message to a posted receive and one that arrives
// unexpected, a rendezvous whose receive is posted before its RTS lands
// and, 100 ms later, one whose RTS waits in the unexpected queue, then
// a burst of Isends with a 2 MiB payload (striped under MPICH-G2).
// After each of two runs on the same world, no record is in the message
// pool twice, every pooled record is zero but for its CTS signal, and
// the second run leaves every pool as the first did.
func TestArenaRecycling(t *testing.T) {
	for _, c := range []struct {
		name string
		prof Profile
	}{{"reference", Reference()}, {"madeleine", madeleine()}, {"mpich-g2", mpichG2()}} {
		t.Run(c.name, func(t *testing.T) {
			k, w := newWorld(t, c.prof, tcpsim.DefaultLinux26(), 1, true)
			defer k.Close()
			const eager, rndv = 1 << 10, 1 << 20
			body := func(r *Rank) {
				if r.Rank() == 0 {
					r.Send(1, 1, eager)
					r.Send(1, 2, eager)
					r.Send(1, 3, rndv)
					r.Sleep(100 * time.Millisecond)
					r.Send(1, 4, rndv)
					r.WaitAll(r.Isend(1, 5, eager), r.Isend(1, 6, rndv), r.Isend(1, 7, 2<<20))
					return
				}
				queued := func(eager bool) {
					if len(r.unexpected) != 1 || r.unexpected[0].eager != eager {
						t.Errorf("want one unexpected message (eager %v), have %d", eager, len(r.unexpected))
					}
				}
				posted, early := r.Irecv(0, 1), r.Irecv(0, 3)
				r.Sleep(50 * time.Millisecond)
				queued(true)
				r.Recv(0, 2)
				r.WaitAll(posted, early)
				r.Sleep(200 * time.Millisecond)
				queued(false)
				for tag := 4; tag <= 7; tag++ {
					r.Recv(0, tag)
				}
			}
			check := func() [4]int {
				t.Helper()
				if _, err := w.Run(body); err != nil {
					t.Fatal(err)
				}
				seen := map[*message]bool{}
				for _, m := range w.msgs.free {
					if seen[m] {
						t.Fatalf("message record %p is in the pool twice", m)
					}
					seen[m] = true
					if *m != (message{cts: m.cts}) {
						t.Fatalf("pooled message record not zeroed: %+v", *m)
					}
				}
				return [4]int{len(w.reqs.free), len(w.msgs.free), len(w.jobs.free), len(w.stripes.free)}
			}
			first := check()
			if first[1] == 0 || first[2] == 0 {
				t.Fatalf("pools empty after traffic: reqs, msgs, jobs, stripes = %v", first)
			}
			if c.prof.ParallelStreams > 1 && first[3] == 0 {
				t.Fatal("no striped payload was recycled")
			}
			if second := check(); second != first {
				t.Fatalf("pool sizes (reqs, msgs, jobs, stripes) changed on identical rerun: %v → %v", first, second)
			}
		})
	}
}

// worldSink keeps the worlds TestNewWorldAllocs builds on the heap.
var worldSink *World

// TestNewWorldAllocs locks a 16-rank world's set-up at exactly 69
// allocations: five for the world (the World, its Stats and their two
// maps, and the rank slice) and four per rank (the Rank and its flows,
// rndvLocks and bigOut maps). A rendezvous keeps its state in its pooled
// message, passed by pointer, so no rank holds a map for it, and the
// pools make their records' signals on first use, so they need no
// constructor.
func TestNewWorldAllocs(t *testing.T) {
	skipIfRace(t)
	k, w := newWorld(t, Reference(), tcpsim.DefaultLinux26(), 8, true)
	defer k.Close()
	hosts := make([]*netsim.Host, w.Size())
	for i, r := range w.ranks {
		hosts[i] = r.host
	}
	if len(hosts) != 16 {
		t.Fatalf("world has %d ranks, want 16", len(hosts))
	}
	allocs := testing.AllocsPerRun(100, func() {
		worldSink = NewWorld(k, w.Net, w.TCP, w.Prof, hosts)
	})
	if allocs != 69 {
		t.Fatalf("NewWorld of 16 ranks allocates %v objects, want exactly 69", allocs)
	}
}
