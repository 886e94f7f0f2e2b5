package tcpsim

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// testbed builds the Rennes/Nancy two-site network of the paper's Figure 2:
// 1 Gbps NICs, 10 Gbps uplinks, 29 µs intra-site one-way delay (41 µs TCP
// latency after stack overheads), 5.8 ms one-way across the WAN.
func testbed() (*sim.Kernel, *netsim.Network) {
	k := sim.New(1)
	n := netsim.New([]netsim.Site{
		{Name: "rennes", Nodes: 2, CPUSpeed: 1.0, NICRate: GigabitEthernet, OneWay: 29 * time.Microsecond, UplinkRate: TenGigabitEthernet},
		{Name: "nancy", Nodes: 2, CPUSpeed: 1.0, NICRate: GigabitEthernet, OneWay: 29 * time.Microsecond, UplinkRate: TenGigabitEthernet},
	}, func(a, b string) time.Duration { return 5800 * time.Microsecond })
	return k, n
}

func clusterPath(n *netsim.Network) *netsim.Path {
	return n.Path(n.Host("rennes-1"), n.Host("rennes-2"))
}

func gridPath(n *netsim.Network) *netsim.Path {
	return n.Path(n.Host("rennes-1"), n.Host("nancy-1"))
}

// transferTime sends total bytes (in msg-sized messages back to back) and
// returns the virtual time until the last byte is delivered.
func transferTime(t *testing.T, k *sim.Kernel, f *Flow, total, msg int64) time.Duration {
	t.Helper()
	var done sim.Time = -1
	k.Go("sender", func(p *sim.Proc) {
		remaining := total
		for remaining > 0 {
			n := msg
			if n > remaining {
				n = remaining
			}
			last := remaining == n
			f.Send(p, n, func() {
				if last {
					done = k.Now()
				}
			})
			remaining -= n
		}
	})
	k.Run()
	if done < 0 {
		t.Fatal("transfer never completed")
	}
	return done
}

func mbps(n int64, d time.Duration) float64 {
	return float64(n) * 8 / d.Seconds() / 1e6
}

func TestSmallMessageLatencyCluster(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	f := NewFlow(k, clusterPath(n), DefaultLinux26(), Autotune)
	d := transferTime(t, k, f, 1, 1)
	// 29 µs propagation + 2×6 µs stack + ~0 serialization ≈ 41 µs.
	if d < 40*time.Microsecond || d > 45*time.Microsecond {
		t.Fatalf("1-byte cluster latency = %v, want ≈41 µs", d)
	}
}

func TestSmallMessageLatencyGrid(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	f := NewFlow(k, gridPath(n), DefaultLinux26(), Autotune)
	d := transferTime(t, k, f, 1, 1)
	if d < 5810*time.Microsecond || d > 5820*time.Microsecond {
		t.Fatalf("1-byte grid latency = %v, want ≈5812 µs", d)
	}
}

func TestClusterThroughputNearLineRate(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	f := NewFlow(k, clusterPath(n), DefaultLinux26(), Autotune)
	const total = 32 << 20
	d := transferTime(t, k, f, total, total)
	bw := mbps(total, d)
	if bw < 880 || bw > 945 {
		t.Fatalf("cluster throughput = %.0f Mbps, want ≈940", bw)
	}
}

// TestGridDefaultBufferCeilings reproduces the core of the paper's Figure 3:
// with default sysctls the 11.6 ms path is window-limited far below 1 Gbps,
// with the three buffer policies ordered autotune > explicit 128 kB >
// kernel-default.
func TestGridDefaultBufferCeilings(t *testing.T) {
	cases := []struct {
		name     string
		policy   BufferPolicy
		min, max float64 // Mbps
	}{
		{"autotune (MPICH2-like)", Autotune, 78, 100},
		{"explicit 128k (OpenMPI-like)", BufferPolicy{Explicit: 128 << 10}, 55, 78},
		{"kernel default (GridMPI-like)", BufferPolicy{KernelDefault: true}, 35, 55},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, n := testbed()
			defer k.Close()
			f := NewFlow(k, gridPath(n), DefaultLinux26(), tc.policy)
			const total = 16 << 20
			d := transferTime(t, k, f, total, total)
			bw := mbps(total, d)
			if bw < tc.min || bw > tc.max {
				t.Fatalf("throughput = %.1f Mbps, want in [%.0f, %.0f]", bw, tc.min, tc.max)
			}
		})
	}
}

// TestGridTunedThroughput reproduces Figure 6/7's headline: 4 MB buffers
// recover most of the gigabit on the WAN once the window has ramped.
func TestGridTunedThroughput(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	f := NewFlow(k, gridPath(n), Tuned4MB(), Autotune)
	// Warm the window as the paper's 200-repetition pingpong does (the
	// figure reports the max over repetitions), then measure one message.
	warm := transferTime(t, k, f, 1<<30, 64<<20)
	start := k.Now()
	var done sim.Time
	k.Go("measured", func(p *sim.Proc) {
		f.Send(p, 64<<20, func() { done = k.Now() })
	})
	k.Run()
	bw := mbps(64<<20, done-start)
	if bw < 800 || bw > 945 {
		t.Fatalf("tuned WAN throughput = %.0f Mbps (warm ramp took %v), want ≥800", bw, warm)
	}
}

// TestPacingRampsFaster is the Figure 9 mechanism: a paced sender reaches
// near-plateau per-message bandwidth many times sooner than an unpaced one.
func TestPacingRampsFaster(t *testing.T) {
	timeTo450Mbps := func(paced bool) time.Duration {
		k, n := testbed()
		defer k.Close()
		cfg := Tuned4MB()
		cfg.Pacing = paced
		f := NewFlow(k, gridPath(n), cfg, Autotune)
		reached := sim.Time(-1)
		k.Go("s", func(p *sim.Proc) {
			const msg = 1 << 20
			for i := 0; i < 300 && reached < 0; i++ {
				start := k.Now()
				done := k.NewSignal()
				f.Send(p, msg, func() { done.Fire() })
				done.Wait(p)
				if bw := mbps(msg, k.Now()-start); bw >= 450 && reached < 0 {
					reached = k.Now()
				}
			}
		})
		k.Run()
		if reached < 0 {
			t.Fatalf("paced=%v never reached 450 Mbps per-message", paced)
		}
		return reached
	}
	unpaced, paced := timeTo450Mbps(false), timeTo450Mbps(true)
	if ratio := float64(unpaced) / float64(paced); ratio < 3 {
		t.Fatalf("pacing ramp speedup = %.2f (paced %v, unpaced %v), want ≥3",
			ratio, paced, unpaced)
	}
}

func TestSlowStartDoublesWindow(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	cfg := Tuned4MB()
	f := NewFlow(k, gridPath(n), cfg, Autotune)
	w0 := f.Cwnd()
	k.Go("s", func(p *sim.Proc) { f.Send(p, 1<<20, nil) })
	// Run just past the first round's ack.
	k.RunUntil(f.rtt() + time.Millisecond)
	if !f.InSlowStart() {
		t.Fatal("flow left slow start during first round")
	}
	if got := f.Cwnd(); got < 1.9*w0 || got > 2.1*w0 {
		t.Fatalf("cwnd after one slow-start round = %.0f, want ≈2×%0.f", got, w0)
	}
	k.Run()
}

func TestIdleRestart(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	cfg := Tuned4MB()
	cfg.SlowStartAfterIdle = true // the stock-kernel behaviour under test
	f := NewFlow(k, gridPath(n), cfg, Autotune)
	k.Go("s", func(p *sim.Proc) {
		f.Send(p, 8<<20, nil)
		p.Sleep(2 * time.Second) // well beyond the RTO
		f.Send(p, 1<<20, nil)
	})
	k.Run()
	if f.Stats.IdleRestarts != 1 {
		t.Fatalf("idle restarts = %d, want 1", f.Stats.IdleRestarts)
	}
}

func TestNoIdleRestartWithinRTO(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	f := NewFlow(k, gridPath(n), Tuned4MB(), Autotune)
	k.Go("s", func(p *sim.Proc) {
		f.Send(p, 1<<20, nil)
		p.Sleep(50 * time.Millisecond) // below the 200 ms MinRTO
		f.Send(p, 1<<20, nil)
	})
	k.Run()
	if f.Stats.IdleRestarts != 0 {
		t.Fatalf("idle restarts = %d, want 0", f.Stats.IdleRestarts)
	}
}

func TestSendBlocksOnSocketBuffer(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	f := NewFlow(k, gridPath(n), DefaultLinux26(), BufferPolicy{Explicit: 128 << 10})
	var returned sim.Time
	k.Go("s", func(p *sim.Proc) {
		f.Send(p, 1<<20, nil)
		returned = k.Now()
	})
	k.Run()
	// 1 MB through a 128 kB buffer: Send cannot return before ~7 window
	// rounds of 11.6 ms have drained the buffer.
	if returned < 50*time.Millisecond {
		t.Fatalf("Send returned at %v; expected blocking on 128 kB buffer", returned)
	}
}

func TestDeliveryCallbacksInOrder(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	f := NewFlow(k, gridPath(n), Tuned4MB(), Autotune)
	var order []int
	var times []sim.Time
	k.Go("s", func(p *sim.Proc) {
		sizes := []int64{100, 64 << 10, 3, 1 << 20, 777, 128 << 10}
		for i, sz := range sizes {
			i := i
			f.Send(p, sz, func() {
				order = append(order, i)
				times = append(times, k.Now())
			})
		}
	})
	k.Run()
	if len(order) != 6 {
		t.Fatalf("delivered %d messages, want 6", len(order))
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("delivery order = %v, want in-order", order)
		}
		if i > 0 && times[i] < times[i-1] {
			t.Fatalf("delivery times not monotonic: %v", times)
		}
	}
}

func TestThroughputUpperBounds(t *testing.T) {
	// Property: measured goodput never exceeds min(line rate × efficiency,
	// windowCap/RTT), whatever the policy and size.
	policies := []BufferPolicy{Autotune, {Explicit: 64 << 10}, {Explicit: 1 << 20}, {KernelDefault: true}}
	sizes := []int64{4 << 10, 256 << 10, 4 << 20, 32 << 20}
	for _, pol := range policies {
		for _, sz := range sizes {
			k, n := testbed()
			cfg := Tuned4MB()
			f := NewFlow(k, gridPath(n), cfg, pol)
			d := transferTime(t, k, f, sz, sz)
			rate := float64(sz) / d.Seconds() // bytes/s
			lineLimit := GigabitEthernet * efficiency
			windowLimit := float64(f.WindowCap()) / f.rtt().Seconds()
			limit := lineLimit
			if windowLimit < limit {
				limit = windowLimit
			}
			if rate > limit*1.05 {
				t.Fatalf("policy %+v size %d: rate %.0f B/s exceeds limit %.0f", pol, sz, rate, limit)
			}
			k.Close()
		}
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	// Two flows out of the same NIC: each should get roughly half.
	src := n.Host("rennes-1")
	p1 := n.Path(src, n.Host("rennes-2"))
	f1 := NewFlow(k, p1, DefaultLinux26(), Autotune)
	f2 := NewFlow(k, p1, DefaultLinux26(), Autotune)
	const total = 8 << 20
	var t1, t2 sim.Time
	k.Go("s1", func(p *sim.Proc) { f1.Send(p, total, func() { t1 = k.Now() }) })
	k.Go("s2", func(p *sim.Proc) { f2.Send(p, total, func() { t2 = k.Now() }) })
	k.Run()
	// Sequential would take ~0.57 s for the pair; sharing should make both
	// finish around the same time, each at roughly half rate.
	if bw := mbps(total, t1); bw > 700 {
		t.Fatalf("flow1 got %.0f Mbps despite contention", bw)
	}
	ratio := float64(t1) / float64(t2)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("contending flows finished at %v vs %v; expected near-equal shares", t1, t2)
	}
}

func TestWindowCapPolicies(t *testing.T) {
	cfg := DefaultLinux26()
	// The advertisable window is 3/4 of the receive-side bytes
	// (tcp_adv_win_scale=2).
	if got := cfg.WindowCap(Autotune); got != 131070 {
		t.Fatalf("autotune cap = %d, want 3/4×tcp_rmem[2]=131070", got)
	}
	if got := cfg.WindowCap(BufferPolicy{KernelDefault: true}); got != 65535 {
		t.Fatalf("kernel-default cap = %d, want 3/4×tcp_rmem[1]=65535", got)
	}
	if got := cfg.WindowCap(BufferPolicy{Explicit: 4 << 20}); got != 98304 {
		t.Fatalf("explicit 4M under default sysctls = %d, want 3/4×rmem_max=98304", got)
	}
	tuned := Tuned4MB()
	if got := tuned.WindowCap(BufferPolicy{Explicit: 4 << 20}); got != 3<<20 {
		t.Fatalf("explicit 4M tuned = %d, want 3 MB advertisable", got)
	}
	if got := tuned.WindowCap(Autotune); got != 3<<20 {
		t.Fatalf("tuned autotune cap = %d, want 3 MB advertisable", got)
	}
}

func TestEfficiencyMatchesGigabitGoodput(t *testing.T) {
	eff := efficiency
	goodput := 1000 * eff // Mbps on GbE
	if goodput < 935 || goodput > 945 {
		t.Fatalf("modelled GbE goodput = %.1f Mbps, want ≈940", goodput)
	}
}

func TestSendAsyncFromEventContext(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	f := NewFlow(k, gridPath(n), DefaultLinux26(), Autotune)
	delivered := false
	k.Schedule(0, func() { f.SendAsyncArg(64, func(any) { delivered = true }, nil) })
	k.Run()
	if !delivered {
		t.Fatal("async control message never delivered")
	}
}

func TestZeroByteSendCompletes(t *testing.T) {
	k, n := testbed()
	defer k.Close()
	f := NewFlow(k, clusterPath(n), DefaultLinux26(), Autotune)
	ok := false
	k.Go("s", func(p *sim.Proc) { f.Send(p, 0, func() { ok = true }) })
	k.Run()
	if !ok {
		t.Fatal("zero-byte send callback did not fire")
	}
}
