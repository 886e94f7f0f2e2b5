package tcpsim

import (
	"testing"
	"time"
)

// TestLinkDownMidTransferStallsAndResumes is the ISSUE's Release-panic
// regression: an uplink dies while a flow holds the path. The seed code
// panicked ("release of idle link") because SetDown zeroed the link's flow
// count out from under the holder; with generation-tracked registrations
// the flow stalls, waits for the link, and finishes the transfer.
func TestLinkDownMidTransferStallsAndResumes(t *testing.T) {
	const total = 64 << 20

	run := func(fault bool) (time.Duration, FlowStats) {
		k, n := testbed()
		defer k.Close()
		f := NewFlow(k, gridPath(n), Tuned4MB(), Autotune)
		if fault {
			out, in, ok := n.Uplink("rennes")
			if !ok {
				t.Fatal("rennes uplink missing")
			}
			k.Schedule(50*time.Millisecond, func() {
				out.SetDown(true)
				in.SetDown(true)
			})
			k.Schedule(250*time.Millisecond, func() {
				out.SetDown(false)
				in.SetDown(false)
			})
		}
		d := transferTime(t, k, f, total, total)
		return d, f.Stats
	}

	healthy, _ := run(false)
	faulted, stats := run(true)

	if stats.LinkStalls != 1 {
		t.Fatalf("LinkStalls = %d, want exactly one stall episode", stats.LinkStalls)
	}
	if stats.StallTime <= 100*time.Millisecond {
		t.Fatalf("StallTime = %v, want most of the 200ms outage", stats.StallTime)
	}
	if stats.BytesDelivered != total {
		t.Fatalf("delivered %d of %d bytes", stats.BytesDelivered, total)
	}
	if faulted < healthy+100*time.Millisecond {
		t.Fatalf("faulted transfer %v vs healthy %v: outage not reflected", faulted, healthy)
	}
}

// TestDownBeforeStartDefersTransfer covers the other stall entry: the link
// is already dead when the flow first pumps, so AcquireGens must not run
// until the path recovers.
func TestDownBeforeStartDefersTransfer(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	out, in, _ := n.Uplink("nancy")
	out.SetDown(true)
	in.SetDown(true)
	k.Schedule(30*time.Millisecond, func() {
		out.SetDown(false)
		in.SetDown(false)
	})
	f := NewFlow(k, gridPath(n), Tuned4MB(), Autotune)
	d := transferTime(t, k, f, 1<<20, 1<<20)
	if d < 30*time.Millisecond {
		t.Fatalf("transfer finished at %v, before the link came up", d)
	}
	if f.Stats.LinkStalls != 1 || f.Stats.StallTime < 25*time.Millisecond {
		t.Fatalf("stats = %+v, want one ≈30ms stall", f.Stats)
	}
}

// TestInjectedLossDegradesDeterministically checks the loss hook: a lossy
// path counts retransmissions, costs bandwidth, and — because every draw
// comes from the kernel RNG — replays to the identical result.
func TestInjectedLossDegradesDeterministically(t *testing.T) {
	const total = 16 << 20

	run := func(loss float64) (time.Duration, FlowStats) {
		k, n := testbed()
		defer k.Close()
		p := gridPath(n)
		for _, l := range p.Links {
			l.SetExtraLoss(loss)
		}
		f := NewFlow(k, p, Tuned4MB(), Autotune)
		d := transferTime(t, k, f, total, total)
		return d, f.Stats
	}

	clean, cleanStats := run(0)
	lossy1, stats1 := run(0.05)
	lossy2, stats2 := run(0.05)

	if cleanStats.InjectedLosses != 0 || cleanStats.RetransBytes != 0 {
		t.Fatalf("clean run recorded injected losses: %+v", cleanStats)
	}
	if stats1.InjectedLosses == 0 || stats1.RetransBytes == 0 {
		t.Fatalf("lossy run recorded no injected losses: %+v", stats1)
	}
	if lossy1 <= clean {
		t.Fatalf("lossy transfer %v not slower than clean %v", lossy1, clean)
	}
	if lossy1 != lossy2 || stats1 != stats2 {
		t.Fatalf("lossy replay diverged: %v/%+v vs %v/%+v", lossy1, stats1, lossy2, stats2)
	}
}

// TestInjectedJitterSlowsButStaysDeterministic checks the jitter hook and
// the delivery-order invariant: jitter stretches rounds (never reorders
// them — deliverRound's FIFO would silently corrupt offsets) and replays
// bit-for-bit.
func TestInjectedJitterSlowsButStaysDeterministic(t *testing.T) {
	const total = 16 << 20

	run := func(j time.Duration) time.Duration {
		k, n := testbed()
		defer k.Close()
		p := gridPath(n)
		p.Links[1].SetJitter(j) // the rennes uplink
		f := NewFlow(k, p, Tuned4MB(), Autotune)
		d := transferTime(t, k, f, total, total)
		if f.Stats.BytesDelivered != total {
			t.Fatalf("jitter %v: delivered %d of %d", j, f.Stats.BytesDelivered, total)
		}
		return d
	}

	clean := run(0)
	jit1 := run(3 * time.Millisecond)
	jit2 := run(3 * time.Millisecond)
	if jit1 <= clean {
		t.Fatalf("jittered transfer %v not slower than clean %v", jit1, clean)
	}
	if jit1 != jit2 {
		t.Fatalf("jittered replay diverged: %v vs %v", jit1, jit2)
	}
}
