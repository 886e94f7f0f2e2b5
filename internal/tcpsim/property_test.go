package tcpsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestPropertyDeliveryMonotone: for any random message schedule, delivery
// callbacks fire in order, exactly once each, at non-decreasing times.
func TestPropertyDeliveryMonotone(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		rng := rand.New(rand.NewSource(seed))
		k, net := testbed()
		defer k.Close()
		path := gridPath(net)
		if seed%2 == 0 {
			path = clusterPath(net)
		}
		policy := Autotune
		if seed%3 == 0 {
			policy = BufferPolicy{Explicit: 64 << 10}
		}
		f := NewFlow(k, path, Tuned4MB(), policy)
		var order []int
		var times []sim.Time
		k.Go("s", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				i := i
				size := int64(rng.Intn(1<<20) + 1)
				f.Send(p, size, func() {
					order = append(order, i)
					times = append(times, k.Now())
				})
				if rng.Intn(3) == 0 {
					p.Sleep(time.Duration(rng.Intn(50)) * time.Millisecond)
				}
			}
		})
		k.Run()
		if len(order) != n {
			return false
		}
		for i := range order {
			if order[i] != i {
				return false
			}
			if i > 0 && times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyByteConservation: the flow delivers exactly the bytes
// queued, whatever the schedule.
func TestPropertyByteConservation(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		k, net := testbed()
		defer k.Close()
		f := NewFlow(k, gridPath(net), DefaultLinux26(), Autotune)
		var queued int64
		k.Go("s", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				size := int64(rng.Intn(256<<10) + 1)
				queued += size
				f.Send(p, size, nil)
			}
		})
		k.Run()
		return f.Stats.BytesQueued == queued && f.Stats.BytesDelivered == queued &&
			f.Delivered() == queued
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(29))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCwndBounds: the congestion window never exceeds the window
// cap nor drops below one MSS, across random transfers.
func TestPropertyCwndBounds(t *testing.T) {
	prop := func(seed int64) bool {
		k, net := testbed()
		defer k.Close()
		cfg := Tuned4MB()
		f := NewFlow(k, gridPath(net), cfg, Autotune)
		ok := true
		k.Go("s", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 10; i++ {
				f.Send(p, int64(rng.Intn(4<<20)+1), nil)
				if f.Cwnd() > float64(f.WindowCap())+1 || f.Cwnd() < float64(mss)-1 {
					ok = false
				}
			}
		})
		k.Run()
		return ok
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicTrajectory: identical seeds and schedules give
// identical virtual end times, byte for byte.
func TestDeterministicTrajectory(t *testing.T) {
	run := func() sim.Time {
		k, net := testbed()
		defer k.Close()
		f1 := NewFlow(k, gridPath(net), Tuned4MB(), Autotune)
		f2 := NewFlow(k, gridPath(net), Tuned4MB(), Autotune)
		k.Go("a", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				f1.Send(p, 300<<10, nil)
			}
		})
		k.Go("b", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				f2.Send(p, 200<<10, nil)
			}
		})
		k.Run()
		return k.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// TestIncastTimeouts: many unpaced flows into one receiver NIC suffer RTO
// stalls; the same pattern paced does not.
func TestIncastTimeouts(t *testing.T) {
	run := func(paced bool) int64 {
		k := sim.New(7)
		defer k.Close()
		net := incastNet()
		cfg := Tuned4MB()
		cfg.Pacing = paced
		var timeouts int64
		flows := make([]*Flow, 8)
		dst := net.Host("nancy-1")
		for i := range flows {
			src := net.SiteHosts("rennes")[i]
			flows[i] = NewFlow(k, net.Path(src, dst), cfg, Autotune)
		}
		for _, f := range flows {
			f := f
			k.Go("s", func(p *sim.Proc) { f.Send(p, 16<<20, nil) })
		}
		k.Run()
		for _, f := range flows {
			timeouts += f.Stats.Timeouts
		}
		return timeouts
	}
	unpaced, paced := run(false), run(true)
	if unpaced == 0 {
		t.Error("8-way unpaced WAN incast produced no RTO stalls")
	}
	if paced > unpaced {
		t.Errorf("paced incast timed out more (%d) than unpaced (%d)", paced, unpaced)
	}
}

// incastNet builds eight senders in Rennes and one receiver in Nancy: the
// receiver's NIC is the oversubscribed bottleneck.
func incastNet() *netsim.Network {
	return netsim.New([]netsim.Site{
		{Name: "rennes", Nodes: 8, CPUSpeed: 1.0, NICRate: GigabitEthernet, OneWay: 29 * time.Microsecond, UplinkRate: TenGigabitEthernet},
		{Name: "nancy", Nodes: 1, CPUSpeed: 1.0, NICRate: GigabitEthernet, OneWay: 29 * time.Microsecond, UplinkRate: TenGigabitEthernet},
	}, func(a, b string) time.Duration { return 5800 * time.Microsecond })
}
