package mpi

import (
	"testing"
	"time"

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
// must run at zero allocations once the pools are warm — Requests, inMsg
// envelopes, send jobs and delivery records all recycle through the
// World's free lists, and the protocol processes recycle through the
// kernel's coroutine pool.
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
// rendezvous handshake must allocate nothing once the pools are warm.
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

// TestArenaRecycling checks the pools actually cycle: after a run with
// message traffic, the world holds recycled protocol objects, and reusing
// the world keeps the pool sizes stable instead of growing per message.
func TestArenaRecycling(t *testing.T) {
	k, w := newWorld(t, Reference(), tcpsim.DefaultLinux26(), 1, false)
	defer k.Close()
	body := func(r *Rank) {
		for i := 0; i < 10; i++ {
			if r.Rank() == 0 {
				r.Send(1, i, 2048)
			} else {
				r.Recv(0, i)
			}
		}
	}
	if _, err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	if len(w.freeMsgs) == 0 || len(w.freeDeliv) == 0 {
		t.Fatalf("pools empty after traffic: msgs=%d deliveries=%d", len(w.freeMsgs), len(w.freeDeliv))
	}
	msgs, deliv, reqs := len(w.freeMsgs), len(w.freeDeliv), len(w.freeReqs)
	if _, err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	if len(w.freeMsgs) != msgs || len(w.freeDeliv) != deliv || len(w.freeReqs) != reqs {
		t.Fatalf("pool sizes changed on identical rerun: msgs %d→%d deliveries %d→%d reqs %d→%d",
			msgs, len(w.freeMsgs), deliv, len(w.freeDeliv), reqs, len(w.freeReqs))
	}
}
