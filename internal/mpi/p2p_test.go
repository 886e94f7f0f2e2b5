package mpi

import (
	"errors"
	"testing"
	"time"

	"repro/internal/grid5000"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// newWorld builds a world of n ranks per site over the Rennes–Nancy
// testbed. With one site, all ranks are in Rennes.
func newWorld(t *testing.T, prof Profile, tcp tcpsim.Config, perSite int, grid bool) (*sim.Kernel, *World) {
	t.Helper()
	k := sim.New(1)
	var net *netsim.Network
	var hosts []*netsim.Host
	if grid {
		net = netsim.New([]netsim.Site{grid5000.Cluster(grid5000.Rennes, perSite), grid5000.Cluster(grid5000.Nancy, perSite)}, grid5000.OneWay)
		hosts = append(hosts, net.SiteHosts(grid5000.Rennes)...)
		hosts = append(hosts, net.SiteHosts(grid5000.Nancy)...)
	} else {
		net = netsim.New([]netsim.Site{grid5000.Cluster(grid5000.Rennes, 2*perSite)}, grid5000.OneWay)
		hosts = net.SiteHosts(grid5000.Rennes)
	}
	return k, NewWorld(k, net, tcp, prof, hosts)
}

func TestSendRecvLatencyCluster(t *testing.T) {
	prof := Reference()
	prof.OverheadLocal = 5 * time.Microsecond
	k, w := newWorld(t, prof, tcpsim.DefaultLinux26(), 1, false)
	defer k.Close()
	var lat sim.Time
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 7, 1)
		case 1:
			r.Recv(0, 7)
			lat = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 41 µs TCP + 5 µs MPI overhead ≈ 46 µs (Table 4).
	if lat < 44*time.Microsecond || lat > 49*time.Microsecond {
		t.Fatalf("1-byte MPI cluster latency = %v, want ≈46 µs", lat)
	}
}

func TestSendRecvLatencyGrid(t *testing.T) {
	prof := Reference()
	prof.OverheadWAN = 6 * time.Microsecond
	k, w := newWorld(t, prof, tcpsim.DefaultLinux26(), 1, true)
	defer k.Close()
	var lat sim.Time
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 7, 1)
		case 1:
			r.Recv(0, 7)
			lat = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if lat < 5815*time.Microsecond || lat > 5825*time.Microsecond {
		t.Fatalf("1-byte MPI grid latency = %v, want ≈5818 µs", lat)
	}
}

func TestMessagesMatchFIFO(t *testing.T) {
	k, w := newWorld(t, Reference(), tcpsim.DefaultLinux26(), 1, false)
	defer k.Close()
	var sizes []int64
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			for i := 1; i <= 5; i++ {
				r.Send(1, 3, i*100)
			}
		case 1:
			for i := 0; i < 5; i++ {
				st := r.Recv(0, 3)
				sizes = append(sizes, st.Size)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sz := range sizes {
		if sz != int64((i+1)*100) {
			t.Fatalf("out-of-order matching: %v", sizes)
		}
	}
}

func TestWildcardMatching(t *testing.T) {
	k, w := newWorld(t, Reference(), tcpsim.DefaultLinux26(), 2, false)
	defer k.Close()
	var got []Status
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(3, 42, 10)
		case 1:
			r.Send(3, 99, 20)
		case 2:
			r.Send(3, 42, 30)
		case 3:
			got = append(got, r.Recv(AnySource, 42))
			got = append(got, r.Recv(1, AnyTag))
			got = append(got, r.Recv(AnySource, AnyTag))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("received %d messages", len(got))
	}
	if got[0].Tag != 42 {
		t.Fatalf("first wildcard recv matched tag %d", got[0].Tag)
	}
	if got[1].Source != 1 || got[1].Tag != 99 {
		t.Fatalf("source-wildcarded recv = %+v", got[1])
	}
	if got[2].Tag != 42 {
		t.Fatalf("final recv = %+v, want the remaining tag-42 message", got[2])
	}
}

func TestUnexpectedMessageCopyCost(t *testing.T) {
	prof := Reference()
	k, w := newWorld(t, prof, tcpsim.DefaultLinux26(), 1, false)
	defer k.Close()
	const n = 64 << 10
	var postedFirst, unexpected sim.Time
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			// Message 1: receiver already posted. Message 2: arrives while
			// the receiver sleeps, so it is buffered and copied out later.
			r.Send(1, 1, n)
			r.Send(1, 2, n)
		case 1:
			r.Recv(0, 1)
			postedFirst = r.Now()
			r.Sleep(50 * time.Millisecond)
			before := r.Now()
			r.Recv(0, 2)
			unexpected = r.Now() - before
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if postedFirst == 0 {
		t.Fatal("first receive never completed")
	}
	size := n // a variable, as in irecv: a constant size folds to a fractional, unconvertible Duration
	copyCost := time.Duration(float64(size) / copyRate * float64(time.Second))
	if unexpected < copyCost {
		t.Fatalf("unexpected-message receive took %v, want ≥ copy cost %v", unexpected, copyCost)
	}
	if unexpected > copyCost+time.Millisecond {
		t.Fatalf("unexpected-message receive took %v, want ≈ copy cost %v", unexpected, copyCost)
	}
	if w.Stats().Unexpected != 1 {
		t.Fatalf("unexpected counter = %d, want 1", w.Stats().Unexpected)
	}
}

func TestRendezvousAddsRoundTrip(t *testing.T) {
	const n = 512 << 10
	oneWay := func(threshold int) sim.Time {
		prof := Reference()
		prof.EagerThreshold = threshold
		k, w := newWorld(t, prof, tcpsim.Tuned4MB(), 1, true)
		defer k.Close()
		var lat sim.Time
		if _, err := w.Run(func(r *Rank) {
			if r.Rank() == 0 {
				r.Send(1, 0, n)
			} else {
				r.Recv(0, 0)
				lat = r.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return lat
	}
	eager := oneWay(Infinite)
	rndv := oneWay(128 << 10)
	extra := rndv - eager
	// RTS + CTS cost one full WAN round trip before the data moves.
	if extra < 11*time.Millisecond || extra > 14*time.Millisecond {
		t.Fatalf("rendezvous penalty = %v (eager %v, rndv %v), want ≈11.6 ms", extra, eager, rndv)
	}
}

// TestConcurrentRendezvousMatchOutOfOrder runs four rendezvous to one
// peer at once, three Isends and then a blocking Send, with distinct
// tags and sizes, and matches them in another order: two by receives
// posted before their RTS arrives, two after their RTS has waited in the
// unexpected queue. Each handshake carries its own receive, so every
// Status has its own message's size, and every receive completes only
// once its own payload has landed. The payloads share one flow in match
// order (each is written when its CTS returns), so a receive completed
// by another message's payload would see fewer bytes delivered than its
// own payload's end.
func TestConcurrentRendezvousMatchOutOfOrder(t *testing.T) {
	k, w := newWorld(t, Reference(), tcpsim.DefaultLinux26(), 1, true)
	defer k.Close()
	// Every size is over the eager threshold and over the flow's window,
	// so no round lands two payloads' ends at once.
	sizes := map[int]int{1: 200 << 10, 2: 300 << 10, 3: 400 << 10, 4: 500 << 10}
	// Posted receives match as their RTSes arrive, and the blocking
	// Send's RTS goes out first: its process resumes from the zero
	// overhead before the Isends' chains take their second step.
	// Unexpected RTSes match in the order the receiver posts for them.
	matchOrder := []int{4, 3, 2, 1}
	landed := map[int]int64{} // the flow's delivered offset when each receive completed
	statuses := map[int]Status{}
	_, err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			reqs := []*Request{r.Isend(1, 1, sizes[1]), r.Isend(1, 2, sizes[2]), r.Isend(1, 3, sizes[3])}
			r.Send(1, 4, sizes[4])
			r.WaitAll(reqs...)
			return
		}
		reqs := map[int]*Request{}
		irecv := func(tag int) {
			reqs[tag] = r.Irecv(0, tag)
			reqs[tag].done.WaitArg(func(any) { landed[tag] = w.ranks[0].flows[1].Delivered() }, nil)
		}
		irecv(3)
		irecv(4)
		// Every RTS has arrived after one WAN one-way delay (≈6 ms).
		r.Sleep(20 * time.Millisecond)
		if len(r.posted) != 0 || len(r.unexpected) != 2 {
			t.Errorf("at 20ms: %d receives posted and %d RTSes unexpected, want 0 and 2", len(r.posted), len(r.unexpected))
		}
		irecv(2)
		irecv(1)
		for _, tag := range matchOrder {
			statuses[tag] = r.Wait(reqs[tag])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	end := int64(len(sizes) * ControlBytes) // the RTSes go out before any CTS returns
	for _, tag := range matchOrder {
		end += EnvelopeBytes + int64(sizes[tag])
		if st := statuses[tag]; st.Source != 0 || st.Tag != tag || st.Size != int64(sizes[tag]) {
			t.Errorf("tag %d: status %+v, want source 0 and size %d", tag, st, sizes[tag])
		}
		if landed[tag] < end {
			t.Errorf("tag %d: receive completed with %d bytes delivered, before its payload ending at %d", tag, landed[tag], end)
		}
	}
	if got := w.ranks[0].flows[1].Delivered(); got != end {
		t.Errorf("the flow delivered %d bytes, want %d", got, end)
	}
}

func TestIsendWaitAndSendrecv(t *testing.T) {
	k, w := newWorld(t, Reference(), tcpsim.DefaultLinux26(), 2, false)
	defer k.Close()
	_, err := w.Run(func(r *Rank) {
		partner := r.Rank() ^ 1
		if r.Rank() < 2 {
			// Ranks 0,1 exchange as a sendrecv: the send runs while the
			// receive waits.
			req := r.Isend(partner, 5, 1000)
			st := r.Recv(partner, 5)
			r.Wait(req)
			if st.Source != partner || st.Size != 1000 {
				t.Errorf("rank %d sendrecv status = %+v", r.Rank(), st)
			}
		} else {
			// Ranks 2,3 exchange via explicit Isend/Recv/Wait.
			req := r.Isend(partner^2+2, 9, 77)
			st := r.Recv(AnySource, 9)
			if st.Size != 77 {
				t.Errorf("rank %d recv size = %d", r.Rank(), st.Size)
			}
			r.Wait(req)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSerialRendezvousSerializesBigMessages(t *testing.T) {
	run := func(serial bool) time.Duration {
		prof := Reference()
		prof.EagerThreshold = 16 << 10
		prof.SerialRendezvous = serial
		k, w := newWorld(t, prof, tcpsim.Tuned4MB(), 1, true)
		defer k.Close()
		const msgs, n = 16, 40 << 10
		elapsed, err := w.Run(func(r *Rank) {
			reqs := make([]*Request, msgs)
			if r.Rank() == 0 {
				for i := range reqs {
					reqs[i] = r.Isend(1, 1, n)
				}
			} else {
				for i := range reqs {
					reqs[i] = r.Irecv(0, 1)
				}
			}
			r.WaitAll(reqs...)
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	pipelined, serial := run(false), run(true)
	// Serialized rendezvous pays a full WAN handshake per message with no
	// overlap: 8 messages ≈ 8 × ~17 ms, vs overlapping handshakes.
	if ratio := float64(serial) / float64(pipelined); ratio < 2 {
		t.Fatalf("serialized rndv only %.2fx slower (%v vs %v)", ratio, serial, pipelined)
	}
}

func TestPayloadsRideMessages(t *testing.T) {
	// Payloads must survive every path: eager matched, eager unexpected,
	// and rendezvous.
	prof := Reference()
	prof.EagerThreshold = 64 << 10
	k, w := newWorld(t, prof, tcpsim.Tuned4MB(), 1, true)
	defer k.Close()
	var got []any
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.SendPayload(1, 1, 100, "eager-posted")
			r.SendPayload(1, 2, 100, 42)         // will arrive unexpected
			r.SendPayload(1, 3, 256<<10, "rndv") // above the threshold
			req := r.IsendPayload(1, 4, 10, []int{7, 8})
			r.Wait(req)
		case 1:
			got = append(got, r.Recv(0, 1).Data)
			r.Sleep(50 * time.Millisecond) // force tag-2 into the unexpected queue
			got = append(got, r.Recv(0, 2).Data)
			got = append(got, r.Recv(0, 3).Data)
			got = append(got, r.Recv(0, 4).Data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != "eager-posted" || got[1] != 42 || got[2] != "rndv" {
		t.Fatalf("payloads = %v", got)
	}
	if s, ok := got[3].([]int); !ok || len(s) != 2 || s[0] != 7 {
		t.Fatalf("isend payload = %v", got[3])
	}
}

func TestDeadlockDetection(t *testing.T) {
	k, w := newWorld(t, Reference(), tcpsim.DefaultLinux26(), 1, false)
	defer k.Close()
	_, err := w.Run(func(r *Rank) {
		if r.Rank() == 1 {
			r.Recv(0, 0) // never sent
		}
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestRunTimeout(t *testing.T) {
	k, w := newWorld(t, Reference(), tcpsim.DefaultLinux26(), 1, false)
	defer k.Close()
	elapsed, err := w.RunTimeout(func(r *Rank) {
		r.Sleep(10 * time.Second)
	}, time.Second)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed != time.Second {
		t.Fatalf("elapsed = %v, want clamp to limit", elapsed)
	}
}

func TestStatsCensus(t *testing.T) {
	k, w := newWorld(t, Reference(), tcpsim.DefaultLinux26(), 2, true)
	defer k.Close()
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 0, 100) // intra-site (both in Rennes)
			r.Send(2, 0, 200) // cross-site
			r.Send(3, 0, 200) // cross-site
		case 1:
			r.Recv(0, 0)
		case 2:
			r.Recv(0, 0)
		case 3:
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.P2PSends != 3 || s.P2PBytes != 500 {
		t.Fatalf("census: sends=%d bytes=%d", s.P2PSends, s.P2PBytes)
	}
	if s.WANSends != 2 || s.WANBytes != 400 {
		t.Fatalf("WAN census: sends=%d bytes=%d", s.WANSends, s.WANBytes)
	}
	rows := s.SizeCensus()
	if len(rows) != 2 || rows[0] != (SizeCount{100, 1}) || rows[1] != (SizeCount{200, 2}) {
		t.Fatalf("size census = %v", rows)
	}
	if got := s.CountBetween(150, 250); got != 2 {
		t.Fatalf("CountBetween = %d", got)
	}
}

func TestComputeScalesWithCPUSpeed(t *testing.T) {
	k := sim.New(1)
	defer k.Close()
	net := netsim.New([]netsim.Site{grid5000.Cluster(grid5000.Rennes, 1), grid5000.Cluster(grid5000.Sophia, 1)}, grid5000.OneWay) // 1.0 vs 1.22
	hosts := []*netsim.Host{net.Host("rennes-1"), net.Host("sophia-1")}
	w := NewWorld(k, net, tcpsim.DefaultLinux26(), Reference(), hosts)
	var tr, ts sim.Time
	if _, err := w.Run(func(r *Rank) {
		r.Compute(time.Second)
		if r.Rank() == 0 {
			tr = r.Now()
		} else {
			ts = r.Now()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if tr != time.Second {
		t.Fatalf("reference-speed compute took %v", tr)
	}
	if ts >= tr {
		t.Fatalf("faster node (%v) not faster than reference (%v)", ts, tr)
	}
}
