package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := New(1)
	defer k.Close()
	var got []int
	k.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	k.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	k.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", k.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	k := New(1)
	defer k.Close()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events executed out of insertion order: %v", got)
		}
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	k := New(1)
	defer k.Close()
	ranAt := Time(-1)
	k.Schedule(time.Second, func() {
		k.Schedule(0, func() { ranAt = k.Now() }) // in the "past"
	})
	k.Run()
	if ranAt != time.Second {
		t.Fatalf("past event ran at %v, want clamp to 1s", ranAt)
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	defer k.Close()
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	k.RunUntil(5 * time.Second)
	if count != 5 {
		t.Fatalf("executed %d events, want 5", count)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", k.Now())
	}
	if k.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", k.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := New(1)
	defer k.Close()
	k.RunUntil(7 * time.Second)
	if k.Now() != 7*time.Second {
		t.Fatalf("clock = %v, want 7s", k.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		k := New(seed)
		defer k.Close()
		var trace []Time
		var branch func(depth int)
		branch = func(depth int) {
			if depth > 4 {
				return
			}
			d := time.Duration(k.Rand().Intn(1000)) * time.Microsecond
			k.After(d, func() {
				trace = append(trace, k.Now())
				branch(depth + 1)
				branch(depth + 1)
			})
		}
		branch(0)
		k.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClockNeverGoesBackwards(t *testing.T) {
	f := func(seed int64, delaysMs []uint16) bool {
		k := New(seed)
		defer k.Close()
		prev := Time(0)
		ok := true
		for _, d := range delaysMs {
			k.Schedule(time.Duration(d)*time.Millisecond, func() {
				if k.Now() < prev {
					ok = false
				}
				prev = k.Now()
			})
		}
		k.Run()
		return ok
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleArgKeepsInsertionOrder interleaves every kind of scheduled
// call — ScheduleArg, a process wakeup, Schedule and Signal.FireAfter —
// at one instant and at a later one: each runs in the (time, seq) slot
// its scheduling call took, whichever kind it is.
func TestScheduleArgKeepsInsertionOrder(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond} {
		k := New(1)
		s := k.NewSignal()
		var got []string
		mark := func(name any) { got = append(got, fmt.Sprintf("%v@%v fired=%v", name, k.Now(), s.Fired())) }
		// Each step schedules its call at instant d from its own event at
		// time 0, so the calls take their seqs in this order.
		k.ScheduleArg(0, func(any) { k.ScheduleArg(d, mark, "arg") }, nil)
		k.Go("sleeper", func(p *Proc) {
			p.Sleep(d)
			mark("wakeup")
		})
		k.Schedule(0, func() { k.Schedule(d, func() { mark("closure") }) })
		k.ScheduleArg(0, func(any) { s.FireAfter(d) }, nil)
		k.ScheduleArg(0, func(any) { k.ScheduleArg(d, mark, "after-fire") }, nil)
		k.Run()
		k.Close()
		want := []string{
			fmt.Sprintf("arg@%v fired=false", d),
			fmt.Sprintf("wakeup@%v fired=false", d),
			fmt.Sprintf("closure@%v fired=false", d),
			fmt.Sprintf("after-fire@%v fired=true", d),
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("d=%v: ran %q, want %q", d, got, want)
		}
	}
}

// BenchmarkKernelEvents times the event loop's raw cost: one future
// event scheduled and executed per iteration. scripts/bench_check.sh
// gates its ns/op.
func BenchmarkKernelEvents(b *testing.B) {
	k := New(1)
	defer k.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.After(time.Microsecond, func() {})
		k.Run()
	}
}
