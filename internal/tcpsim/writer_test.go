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

// runBlockedWrite runs the write and, if async > 0, a SendAsync of async
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
		if f.ackedOff != prevAcked && f.writer != nil && f.sndbufFree() > 0 {
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
			r.placed = f.writer != nil && f.sndbufFree() > 0
			f.SendAsync(async, func() { r.asyncLanded = f.Delivered() })
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

// TestSendAsyncBetweenAckAndRefill puts SendAsync bytes (a rendezvous CTS
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
			t.Fatalf("async %d: the SendAsync at %v did not run between an ack and its refill", async, at)
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
	if f.writer == nil || f.owed == 0 {
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
