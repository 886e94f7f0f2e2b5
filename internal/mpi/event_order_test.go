package mpi

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/tcpsim"
)

var updateTrace = flag.Bool("update-trace", false, "rewrite testdata/send_event_order.golden")

// sendOrderScenario is one small world whose executed (time, seq) stream
// is locked by TestSendEventOrder.
type sendOrderScenario struct {
	name string
	prof Profile
	tcp  tcpsim.Config
	grid bool
	body func(r *Rank)
}

// madeleine, openMPI and mpichG2 copy the quirks of the mpiimpl profiles
// of the same names (mpiimpl imports mpi, so tests here cannot).
func madeleine() Profile {
	return Profile{
		OverheadLocal: 21 * time.Microsecond, OverheadWAN: 14 * time.Microsecond,
		EagerThreshold: 128 << 10, Buffers: tcpsim.Autotune, SerialRendezvous: true,
		SlowPathThreshold: 148 << 10, SlowPathStall: 40 * time.Millisecond,
	}
}

func openMPI() Profile {
	return Profile{
		OverheadLocal: 5 * time.Microsecond, OverheadWAN: 8 * time.Microsecond,
		EagerThreshold: 64 << 10, Buffers: tcpsim.BufferPolicy{Explicit: 128 << 10},
		FragmentSize: 128 << 10, FragmentOverhead: 40 * time.Microsecond,
	}
}

func mpichG2() Profile {
	return Profile{
		OverheadLocal: 9 * time.Microsecond, OverheadWAN: 12 * time.Microsecond,
		EagerThreshold: 64 << 10, Buffers: tcpsim.Autotune,
		ParallelStreams: 4, StreamMinSize: 1 << 20,
	}
}

// sendOrderScenarios make every wait of the send protocol happen, for
// nonblocking and blocking sends alike: the serial-rendezvous lock, the
// flow's write lock, a write blocked on the send buffer, the CTS, the
// overhead, slow-path and fragment delays, and MPICH-G2's striped lanes.
func sendOrderScenarios() []sendOrderScenario {
	serialStorm := func(serial bool) func(r *Rank) {
		// TestSerialRendezvousSerializesBigMessages: 16 rendezvous Isends
		// to one peer, queued on the serial-rendezvous lock when serial.
		return func(r *Rank) {
			reqs := make([]*Request, 16)
			for i := range reqs {
				if r.Rank() == 0 {
					reqs[i] = r.Isend(1, 1, 40<<10)
				} else {
					reqs[i] = r.Irecv(0, 1)
				}
			}
			r.WaitAll(reqs...)
		}
	}
	serialRef := func(serial bool) Profile {
		p := Reference()
		p.EagerThreshold = 16 << 10
		p.SerialRendezvous = serial
		return p
	}
	// twoIsendsThenSend has rank 0 post two Isends and, 1 µs later, a
	// Send of n bytes to rank 1: the Send waits for a lock the first
	// Isend holds while the second Isend queues on it too.
	twoIsendsThenSend := func(n int) func(r *Rank) {
		return func(r *Rank) {
			if r.Rank() == 0 {
				a, b := r.Isend(1, 1, n), r.Isend(1, 2, n)
				r.Sleep(time.Microsecond)
				r.Send(1, 3, n)
				r.WaitAll(a, b)
				return
			}
			for tag := 1; tag <= 3; tag++ {
				r.Recv(0, tag)
			}
		}
	}
	eager := Reference()
	eager.EagerThreshold = Infinite
	// isendAndSend has rank 0 Isend then Send n bytes to rank 1.
	isendAndSend := func(n int) func(r *Rank) {
		return func(r *Rank) {
			if r.Rank() == 0 {
				req := r.Isend(1, 1, n)
				r.Send(1, 2, n)
				r.Wait(req)
				return
			}
			r.Recv(0, 1)
			r.Recv(0, 2)
		}
	}
	return []sendOrderScenario{
		{name: "serial-rndv-storm/pipelined", prof: serialRef(false), tcp: tcpsim.Tuned4MB(), grid: true, body: serialStorm(false)},
		{name: "serial-rndv-storm/serial", prof: serialRef(true), tcp: tcpsim.Tuned4MB(), grid: true, body: serialStorm(true)},
		{name: "serial-rndv/isends-then-send", prof: serialRef(true), tcp: tcpsim.Tuned4MB(), grid: true, body: twoIsendsThenSend(40 << 10)},
		{name: "write-lock/4MiB-eager", prof: eager, tcp: tcpsim.DefaultLinux26(), grid: true, body: twoIsendsThenSend(4 << 20)},
		{name: "write-lock/4MiB-eager-cluster", prof: eager, tcp: tcpsim.DefaultLinux26(), body: twoIsendsThenSend(4 << 20)},
		{name: "write-lock/rts-behind-eager", prof: Reference().WithEagerThreshold(4 << 20), tcp: tcpsim.DefaultLinux26(), grid: true, body: func(r *Rank) {
			// The rendezvous Isend's RTS queues on the write lock behind
			// the blocked eager write and is buffered at once when it
			// gets the lock; so is the small Send behind it.
			if r.Rank() == 0 {
				a, b := r.Isend(1, 1, 4<<20), r.Isend(1, 2, 4<<20+1)
				r.Sleep(time.Microsecond)
				r.Send(1, 3, 1<<10)
				r.WaitAll(a, b)
				return
			}
			for tag := 1; tag <= 3; tag++ {
				r.Recv(0, tag)
			}
		}},
		{name: "mpich-g2/striped-2MiB", prof: mpichG2(), tcp: tcpsim.DefaultLinux26(), grid: true, body: isendAndSend(2 << 20)},
		{name: "mpich-g2/striped-2MiB-tuned", prof: mpichG2(), tcp: tcpsim.Tuned4MB(), grid: true, body: isendAndSend(2 << 20)},
		{name: "mpich-g2/striped-eager-2MiB", prof: mpichG2().WithEagerThreshold(Infinite), tcp: tcpsim.DefaultLinux26(), grid: true, body: isendAndSend(2 << 20)},
		{name: "openmpi/fragments-1MiB", prof: openMPI(), tcp: tcpsim.DefaultLinux26(), grid: true, body: isendAndSend(1 << 20)},
		{name: "madeleine/slow-path-exchange", prof: madeleine(), tcp: tcpsim.Tuned4MB(), grid: true, body: func(r *Rank) {
			// Both directions move a 152 kB message at once over the
			// WAN: the later sender stalls on the slow path. Rank 0
			// sends nonblocking, rank 1 blocking.
			const n = 152 << 10
			peer := 1 - r.Rank()
			if r.Rank() == 0 {
				req := r.Isend(peer, 1, n)
				r.Recv(peer, 1)
				r.Wait(req)
				return
			}
			r.Send(peer, 1, n)
			r.Recv(peer, 1)
		}},
		{name: "madeleine/slow-path-isends", prof: madeleine(), tcp: tcpsim.Tuned4MB(), grid: true, body: func(r *Rank) {
			const n = 152 << 10
			peer := 1 - r.Rank()
			req := r.Isend(peer, 1, n)
			r.Recv(peer, 1)
			r.Wait(req)
		}},
	}
}

// TestSendEventOrder locks the executed (time, seq) stream of each send
// scenario by one line: its name, the sha256 of the stream and the
// elapsed virtual time. The golden was recorded while every nonblocking
// send still ran as a process of its own, so code that continues in
// event context must schedule each continuation in the (time, seq) slot
// of the wakeup it replaces. Regenerate with -update-trace only for a
// deliberate semantic change.
func TestSendEventOrder(t *testing.T) {
	var out bytes.Buffer
	for _, sc := range sendOrderScenarios() {
		k, w := newWorld(t, sc.prof, sc.tcp, 1, sc.grid)
		events := sha256.New()
		k.SetTracer(func(at sim.Time, seq uint64) { fmt.Fprintf(events, "%d %d\n", int64(at), seq) })
		elapsed, err := w.Run(sc.body)
		k.Close()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		fmt.Fprintf(&out, "%s %x %d\n", sc.name, events.Sum(nil), int64(elapsed))
	}
	golden := filepath.Join("testdata", "send_event_order.golden")
	if *updateTrace {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (generate with -update-trace): %v", err)
	}
	gotLines, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Errorf("got %d lines, want %d", len(gotLines), len(wantLines))
	}
}
