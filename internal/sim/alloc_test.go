package sim

import (
	"testing"
	"time"
)

// nop is a package-level event callback so scheduling it captures nothing.
var nop = func() {}

// skipIfRace skips allocation-count tests under the race detector, whose
// instrumentation allocates on its own.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
}

// TestScheduleNowAllocFree locks the same-instant fast path: once the
// slab, free list and ring are warm, Schedule(Now, fn)+Step recycles
// slots and allocates nothing.
func TestScheduleNowAllocFree(t *testing.T) {
	skipIfRace(t)
	k := New(1)
	defer k.Close()
	for i := 0; i < 64; i++ { // warm the slab and ring
		k.Schedule(k.Now(), nop)
	}
	k.Run()
	allocs := testing.AllocsPerRun(200, func() {
		k.Schedule(k.Now(), nop)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule(now)+Step allocates %v/op, want 0", allocs)
	}
}

// TestScheduleFutureAllocFree locks the heap path: future events reuse
// freed slab slots, and heap growth is amortized away once warm.
func TestScheduleFutureAllocFree(t *testing.T) {
	skipIfRace(t)
	k := New(1)
	defer k.Close()
	for i := 0; i < 64; i++ {
		k.After(time.Duration(i+1)*time.Microsecond, nop)
	}
	k.Run()
	allocs := testing.AllocsPerRun(200, func() {
		k.After(time.Microsecond, nop)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Step allocates %v/op, want 0", allocs)
	}
}

// TestSleepAllocFree locks the process wakeup path: a steady-state Sleep
// is one wakeup event plus a coroutine switch each way — no
// closures, no per-iteration allocation. Every sleep parks, never
// running its wakeup in place, because each wakeup lies past the bound
// of the RunUntil it sleeps in.
func TestSleepAllocFree(t *testing.T) {
	skipIfRace(t)
	k := New(1)
	defer k.Close() // aborts the parked sleeper
	k.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	for i := 0; i < 64; i++ { // warm: first wakeups grow stacks etc.
		k.RunUntil(k.Now() + time.Microsecond)
	}
	allocs := testing.AllocsPerRun(200, func() {
		k.RunUntil(k.Now() + time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("Sleep cycle allocates %v/op, want 0", allocs)
	}
}

// TestSleepSkipAllocFree locks the in-place wakeup: a sleep whose
// wakeup is the next event runs it without parking and allocates
// nothing. Each cycle wakes the sleeper through a signal, its own
// wakeup event, and its eight sleeps then find nothing else pending.
func TestSleepSkipAllocFree(t *testing.T) {
	skipIfRace(t)
	k := New(1)
	defer k.Close() // aborts the parked sleeper
	s := k.NewSignal()
	skipped := 0
	k.SetTracer(func(Time, uint64) {
		if k.woken != nil {
			skipped++
		}
	})
	k.Go("sleeper", func(p *Proc) {
		for {
			s.Wait(p)
			s.Reset()
			for range 8 {
				p.Sleep(time.Microsecond)
			}
		}
	})
	cycle := func() {
		s.Fire()
		k.Run()
	}
	for i := 0; i < 64; i++ { // warm
		cycle()
	}
	if skipped != 64*8 {
		t.Fatalf("%d of 512 sleeps ran their wakeup in place, want all", skipped)
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if allocs != 0 {
		t.Fatalf("Wait plus 8 skipped sleeps allocates %v/op, want 0", allocs)
	}
}

// TestSignalSingleWaiterAllocFree locks Signal's inline waiter slot:
// waiting on and firing a signal with one waiter must not allocate
// beyond the signal itself.
func TestSignalSingleWaiterAllocFree(t *testing.T) {
	skipIfRace(t)
	k := New(1)
	defer k.Close()
	s := k.NewSignal()
	k.Go("waiter", func(p *Proc) {
		for {
			s.Wait(p)
			s.Reset()
		}
	})
	for i := 0; i < 64; i++ { // warm
		s.Fire()
		k.Run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.Fire()
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("Wait/Fire/Reset cycle allocates %v/op, want 0", allocs)
	}
}

// TestParkResumeAllocFree locks the direct park path: an event that
// resumes a process blocked in Park, which parks again, is one coroutine
// switch each way and allocates nothing.
func TestParkResumeAllocFree(t *testing.T) {
	skipIfRace(t)
	k := New(1)
	defer k.Close() // aborts the parked process
	parker := k.Go("parker", func(p *Proc) {
		for {
			p.Park()
		}
	})
	resume := func() { k.Resume(parker) }
	k.Run()                   // the process starts and parks
	for i := 0; i < 64; i++ { // warm
		k.Schedule(k.Now(), resume)
		k.Run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		k.Schedule(k.Now(), resume)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("Park/Resume cycle allocates %v/op, want 0", allocs)
	}
}

// nopArg is a package-level fn(arg) event.
func nopArg(any) {}

// TestScheduleArgAllocFree locks the fn(arg) primitive: once the slab,
// ring and heap are warm, ScheduleArg with a package-level fn and a
// pointer arg, now and in the future, plus the Steps that run them
// allocate nothing.
func TestScheduleArgAllocFree(t *testing.T) {
	skipIfRace(t)
	k := New(1)
	defer k.Close()
	arg := new(int)
	for i := 0; i < 64; i++ { // warm the slab, ring and heap
		k.ScheduleArg(k.Now(), nopArg, arg)
		k.ScheduleArg(k.Now()+time.Duration(i+1)*time.Microsecond, nopArg, arg)
	}
	k.Run()
	allocs := testing.AllocsPerRun(200, func() {
		k.ScheduleArg(k.Now(), nopArg, arg)
		k.ScheduleArg(k.Now()+time.Microsecond, nopArg, arg)
		k.Step()
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleArg+Step allocates %v/op, want 0", allocs)
	}
}
