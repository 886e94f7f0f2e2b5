package tcpsim

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

const blockedWriteBytes = 4 << 20

// blockedWrite is one run of a 4 MiB Send through a 128 kB socket buffer
// over the Rennes–Nancy WAN: the writer stays parked for dozens of window
// rounds while refills hand its bytes to the flow.
type blockedWrite struct {
	// acks are the instants of the acks that scheduled a refill.
	acks []sim.Time
	// placed reports that the async send ran between an ack and the
	// refill that ack scheduled.
	placed bool
	// asyncEnd is the stream offset after the async bytes; asyncLanded
	// and writeLanded are Delivered() when the async and the write
	// delivery callbacks ran (-1 if they never did).
	asyncEnd, asyncLanded, writeLanded int64
}

// runBlockedWrite runs the write and, if async > 0, a SendAsyncArg of async
// bytes at instant asyncAt, right after the ack at that instant. Before
// every event it checks that the send buffer never holds more than
// windowCap plus the async bytes, that the writer's bytes never fill it
// past windowCap, and that delivery never goes back; at the end, that
// every byte was delivered.
func runBlockedWrite(t *testing.T, asyncAt sim.Time, async int64) blockedWrite {
	t.Helper()
	k, n := testbed()
	defer k.Close()
	f := NewFlow(k, gridPath(n), DefaultLinux26(), BufferPolicy{Explicit: 128 << 10})
	r := blockedWrite{asyncEnd: -1, asyncLanded: -1, writeLanded: -1}
	k.Go("writer", func(p *sim.Proc) {
		f.Send(p, blockedWriteBytes, func() { r.writeLanded = f.Delivered() })
	})
	capacity := int64(f.WindowCap())
	var violation string
	var prevAt sim.Time
	var prevQueued, prevAcked, prevDelivered int64
	asyncJustQueued := false
	fail := func(format string, args ...any) {
		if violation == "" {
			violation = fmt.Sprintf("after the event at %v: ", prevAt) + fmt.Sprintf(format, args...)
		}
	}
	// The tracer runs before every event, so it sees the state each event
	// left behind.
	k.SetTracer(func(at sim.Time, _ uint64) {
		used := f.queued - f.ackedOff
		if used > capacity+async {
			fail("the send buffer holds %d bytes, over windowCap %d + async %d", used, capacity, async)
		}
		// Only the writer's bytes respect the socket buffer: a refill may
		// fill what async bytes left free, never past windowCap.
		if f.queued > prevQueued && !asyncJustQueued && used > capacity {
			fail("the writer filled the send buffer to %d, over windowCap %d", used, capacity)
		}
		if f.deliveredOff < prevDelivered {
			fail("delivered offset went back from %d to %d", prevDelivered, f.deliveredOff)
		}
		if f.ackedOff != prevAcked && f.pending != nil && f.sndbufFree() > 0 {
			r.acks = append(r.acks, prevAt) // an ack whose refill is pending
		}
		prevAt, prevQueued, prevAcked, prevDelivered = at, f.queued, f.ackedOff, f.deliveredOff
		asyncJustQueued = false
	})
	if async > 0 {
		// The ack at asyncAt is already queued when the clock stands just
		// before it, so an event scheduled for that instant now gets a
		// later seq and runs after the ack, and as a heap event it runs
		// before the refill the ack put in the same-instant ring.
		k.RunUntil(asyncAt - 1)
		k.Schedule(asyncAt, func() {
			r.placed = f.pending != nil && f.sndbufFree() > 0
			f.SendAsyncArg(async, func(any) { r.asyncLanded = f.Delivered() }, nil)
			r.asyncEnd, asyncJustQueued = f.queued, true
		})
	}
	k.Run()
	if violation != "" {
		t.Fatalf("async %d: %s", async, violation)
	}
	total := blockedWriteBytes + async
	if f.queued != total || f.Delivered() != total || f.Stats.BytesDelivered != total || r.writeLanded != total {
		t.Fatalf("async %d: queued %d, delivered %d (stats %d), write landed at %d, want all %d",
			async, f.queued, f.Delivered(), f.Stats.BytesDelivered, r.writeLanded, total)
	}
	return r
}

// TestSendAsyncBetweenAckAndRefill puts SendAsyncArg bytes (a rendezvous CTS
// is the real case) on a flow after an ack freed send-buffer space but
// before the refill that ack scheduled has run. The refill must re-check
// the free space when it runs: the writer's bytes may only fill what the
// async bytes left, and every byte still arrives, in stream order. The
// ack instant comes from a first run without the async send; runs are
// deterministic, so the second run reaches the same ack.
func TestSendAsyncBetweenAckAndRefill(t *testing.T) {
	alone := runBlockedWrite(t, 0, 0)
	if len(alone.acks) < 8 {
		t.Fatalf("only %d refills; the write should block for dozens of rounds", len(alone.acks))
	}
	at := alone.acks[len(alone.acks)/2]
	// 64 bytes leave the refill some space; a whole windowCap leaves none.
	for _, async := range []int64{64, 96 << 10} {
		r := runBlockedWrite(t, at, async)
		if !r.placed {
			t.Fatalf("async %d: the SendAsyncArg at %v did not run between an ack and its refill", async, at)
		}
		if r.asyncEnd <= 0 || r.asyncLanded < r.asyncEnd || r.asyncLanded > r.writeLanded {
			t.Fatalf("async %d: async bytes ending at offset %d landed at %d, the write at %d",
				async, r.asyncEnd, r.asyncLanded, r.writeLanded)
		}
	}
}

// TestCloseUnwindsBlockedWriter: a writer parked mid-write has no pending
// wakeup event, and Kernel.Close still unwinds it without Send returning.
func TestCloseUnwindsBlockedWriter(t *testing.T) {
	k, n := testbed()
	f := NewFlow(k, gridPath(n), DefaultLinux26(), BufferPolicy{Explicit: 128 << 10})
	unwound := false
	k.Go("writer", func(p *sim.Proc) {
		defer func() { unwound = true }()
		f.Send(p, 64<<20, nil)
		t.Error("Send returned although the kernel closed mid-write")
	})
	k.RunUntil(100 * time.Millisecond)
	if f.pending == nil || f.owed == 0 {
		t.Fatalf("writer not parked mid-write at 100ms (owed %d)", f.owed)
	}
	if unwound {
		t.Fatal("writer unwound before Close")
	}
	k.Close()
	if !unwound {
		t.Fatal("Close did not unwind the blocked writer")
	}
}

// TestFlowFitsSizeClass keeps Flow inside Go's 640-byte allocation size
// class: every rank pair allocates one, so crossing into the next class
// (704 bytes) would show up in every workload's allocation volume.
func TestFlowFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Flow{}); size > 640 {
		t.Fatalf("Flow is %d bytes, over the 640-byte size class", size)
	}
}

// stamp is the (time, seq) of an executed event.
type stamp struct {
	at  sim.Time
	seq uint64
}

// writersRun has one writer per kind letter write to one WAN flow with a
// 128 kB send buffer, in order at instant 0, each from an event of its
// own: a process calling Send ('p') or a callback write ('c'). The
// first write (4 MiB) blocks on the buffer holding the write lock, so
// the others queue on the lock; the second (64 B) then buffers at once
// and the third (1 MiB) blocks on the buffer in turn. It returns the
// event each write completed in, the offset delivered when each write's
// delivery callback ran, and the whole event stream.
func writersRun(kinds string) (done []stamp, landed []int64, events []stamp) {
	k, n := testbed()
	defer k.Close()
	f := NewFlow(k, gridPath(n), DefaultLinux26(), BufferPolicy{Explicit: 128 << 10})
	k.SetTracer(func(at sim.Time, seq uint64) { events = append(events, stamp{at, seq}) })
	sizes := []int64{4 << 20, 64, 1 << 20}
	done, landed = make([]stamp, len(sizes)), make([]int64, len(sizes))
	writes := make([]Write, len(sizes))
	for i, size := range sizes {
		finished := func(any) { done[i] = events[len(events)-1] }
		land := func() { landed[i] = f.Delivered() }
		if kinds[i] == 'p' {
			k.Go("writer", func(p *sim.Proc) {
				f.Send(p, size, land)
				finished(nil)
			})
			continue
		}
		writes[i] = Write{N: size, Fn: func(any) { land() }, Then: finished}
		k.Schedule(0, func() {
			if f.Write(&writes[i]) {
				finished(nil)
			}
		})
	}
	k.Run()
	return done, landed, events
}

// TestWriteMatchesSend: a process writing through Send parks, and its
// write's continuation resumes it inline — after the write lock's
// handoff or in the refill that buffers its last byte — so the park adds
// no event: any mix of process and callback writers completes each
// write in the same event, delivers the same bytes and executes the same
// event stream.
func TestWriteMatchesSend(t *testing.T) {
	wantDone, wantLanded, wantEvents := writersRun("ppp")
	if wantLanded[2] != 5<<20+64 {
		t.Fatalf("the last write landed at offset %d, want %d", wantLanded[2], 5<<20+64)
	}
	// The events the writes complete in, and the event count, pinned to
	// what a blocked process writer took when it parked in a write path
	// of its own: Send keeps each process writer in those slots.
	const recorded = "[{534152000 186} {534152000 190} {653718367 232}] of 235 events"
	if got := fmt.Sprintf("%v of %d events", wantDone, len(wantEvents)); got != recorded {
		t.Fatalf("process writers completed in %s, recorded %s", got, recorded)
	}
	for _, kinds := range []string{"ccc", "cpc", "pcp", "ppc"} {
		done, landed, events := writersRun(kinds)
		if fmt.Sprint(done) != fmt.Sprint(wantDone) {
			t.Errorf("%s: writes completed in events %v, processes in %v", kinds, done, wantDone)
		}
		if fmt.Sprint(landed) != fmt.Sprint(wantLanded) {
			t.Errorf("%s: deliveries ran at offsets %v, with processes %v", kinds, landed, wantLanded)
		}
		if fmt.Sprint(events) != fmt.Sprint(wantEvents) {
			t.Errorf("%s: %d events differ from the %d with processes", kinds, len(events), len(wantEvents))
		}
	}
}
