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
// is one typed transfer event plus a coroutine switch each way — no
// closures, no per-iteration allocation.
func TestSleepAllocFree(t *testing.T) {
	skipIfRace(t)
	k := New(1)
	defer k.Close() // aborts the parked sleeper
	k.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	for i := 0; i < 64; i++ { // warm: first transfers grow stacks etc.
		k.RunUntil(k.Now() + time.Microsecond)
	}
	allocs := testing.AllocsPerRun(200, func() {
		k.RunUntil(k.Now() + time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("Sleep cycle allocates %v/op, want 0", allocs)
	}
}

// TestQueuePutGetAllocFree locks the queue rendezvous: Put wakes the
// blocked getter through a typed event, Get pops by compaction — zero
// allocations per item once the item buffer is warm.
func TestQueuePutGetAllocFree(t *testing.T) {
	skipIfRace(t)
	k := New(1)
	defer k.Close() // aborts the blocked consumer
	q := NewQueue[int](k)
	k.Go("consumer", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	for i := 0; i < 64; i++ { // warm
		q.Put(i)
		k.Run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		q.Put(1)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("Put+Get cycle allocates %v/op, want 0", allocs)
	}
}

// TestSpawnAllocFree locks the process pool: once a finished coroutine is
// in the free list, GoJob with a package-level body and a recycled arg
// spawns, runs and retires processes without allocating.
func TestSpawnAllocFree(t *testing.T) {
	skipIfRace(t)
	k := New(1)
	defer k.Close()
	body := func(p *Proc, arg any) { p.Sleep(time.Microsecond) }
	arg := new(int)
	for i := 0; i < 64; i++ { // warm: create and retire the pooled coroutine
		k.GoJob("job", body, arg)
		k.Run()
	}
	allocs := testing.AllocsPerRun(200, func() {
		k.GoJob("job", body, arg)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("GoJob spawn cycle allocates %v/op, want 0", allocs)
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
