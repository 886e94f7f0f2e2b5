package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	k := New(1)
	defer k.Close()
	var wake Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		wake = p.Now()
	})
	k.Run()
	if wake != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	k := New(1)
	defer k.Close()
	var order []string
	mk := func(name string, d time.Duration) {
		k.Go(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(d)
				order = append(order, name)
			}
		})
	}
	mk("a", 2*time.Millisecond)
	mk("b", 3*time.Millisecond)
	k.Run()
	// Wake times: a at 2,4,6ms; b at 3,6,9ms. At the t=6ms tie, b's wake
	// event was scheduled earlier (at t=3ms vs t=4ms), so b runs first.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSignalReleasesWaitersInOrder(t *testing.T) {
	k := New(1)
	defer k.Close()
	s := k.NewSignal()
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		k.Go(name, func(p *Proc) {
			s.Wait(p)
			order = append(order, name)
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Fire()
	})
	k.Run()
	if len(order) != 3 || order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("wake order = %v", order)
	}
}

func TestSignalWaitAfterFireReturnsImmediately(t *testing.T) {
	k := New(1)
	defer k.Close()
	s := k.NewSignal()
	s.Fire()
	var at Time = -1
	k.Go("late", func(p *Proc) {
		s.Wait(p)
		at = p.Now()
	})
	k.Run()
	if at != 0 {
		t.Fatalf("late waiter resumed at %v, want 0", at)
	}
}

func TestSignalFireIdempotent(t *testing.T) {
	k := New(1)
	defer k.Close()
	s := k.NewSignal()
	n := 0
	k.Go("w", func(p *Proc) { s.Wait(p); n++ })
	k.Go("f", func(p *Proc) { s.Fire(); s.Fire(); s.Fire() })
	k.Run()
	if n != 1 {
		t.Fatalf("waiter ran %d times, want 1", n)
	}
}

func TestCloseAbortsParkedProcs(t *testing.T) {
	k := New(1)
	s := k.NewSignal()
	started := false
	k.Go("stuck", func(p *Proc) {
		started = true
		s.Wait(p) // never fired
		t.Error("stuck process resumed unexpectedly")
	})
	k.Run()
	if !started {
		t.Fatal("process never started")
	}
	k.Close()
	k.Close() // idempotent
}

func TestCloseAbortsNeverStartedProc(t *testing.T) {
	k := New(1)
	k.Go("never", func(p *Proc) {
		t.Error("process body ran after Close without Run")
	})
	// Run never called; Close must still unwind the goroutine.
	k.Close()
}

// TestSleepZeroRunsPendingSameInstantEvents: Sleep(0) still yields,
// letting events already scheduled for this instant run first.
func TestSleepZeroRunsPendingSameInstantEvents(t *testing.T) {
	k := New(1)
	defer k.Close()
	var order []string
	k.Go("a", func(p *Proc) {
		k.Schedule(k.Now(), func() { order = append(order, "event") })
		p.Sleep(0)
		order = append(order, "proc")
	})
	k.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Fatalf("order = %v", order)
	}
}

// TestProcPanicPropagatesToRun pins the scheduler's panic contract: a
// genuine panic in a process body unwinds through the coroutine switch
// and surfaces at the Kernel.Run caller on the same goroutine, where it
// can be recovered (exp.Run converts it to Result.Err). Under the old
// goroutine-per-process model the panic killed the whole program.
func TestProcPanicPropagatesToRun(t *testing.T) {
	k := New(1)
	defer k.Close()
	k.Go("boom", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("kaboom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	if got != "kaboom" {
		t.Fatalf("recovered %v from Run, want the process body's panic value", got)
	}
}

// TestGoJobRunsWithArg covers the closure-free spawn variant.
func TestGoJobRunsWithArg(t *testing.T) {
	k := New(1)
	defer k.Close()
	got := 0
	k.GoJob("job", func(p *Proc, arg any) {
		p.Sleep(time.Microsecond)
		got = *arg.(*int)
	}, new(int))
	k.Run()
	if got != 0 {
		t.Fatalf("job arg = %d, want 0", got)
	}
	v := 41
	k.GoJob("job2", func(p *Proc, arg any) { got = *arg.(*int) + 1 }, &v)
	k.Run()
	if got != 42 {
		t.Fatalf("job2 result = %d, want 42", got)
	}
}

// TestFinishedProcsHoldNoGoroutine: a process's coroutine ends when its
// body returns, so finished processes hold no goroutine before Close.
func TestFinishedProcsHoldNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New(1)
	defer k.Close()
	for range 16 {
		k.Go("sleeper", func(p *Proc) { p.Sleep(time.Microsecond) })
	}
	k.Run()
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after every process finished, want %d as before the spawns", n, base)
	}
}

// TestResumeRunsInlineInCallingEvent pins Kernel.Resume's contract: a
// process blocked in a direct Park continues inside the event that
// resumes it, and that event finishes once the process parks again. The
// tracer records the resuming event and no wakeup event of its own.
func TestResumeRunsInlineInCallingEvent(t *testing.T) {
	k := New(1)
	defer k.Close()
	type stamp struct {
		at  Time
		seq uint64
	}
	var traced []stamp
	k.SetTracer(func(at Time, seq uint64) { traced = append(traced, stamp{at, seq}) })
	var order []string
	var resumedIn stamp
	parker := k.Go("parker", func(p *Proc) {
		p.Park()
		resumedIn = traced[len(traced)-1]
		order = append(order, "resumed")
		p.Sleep(time.Microsecond) // parks again: control returns to the event
		order = append(order, "woke")
	})
	k.After(5*time.Millisecond, func() {
		k.Resume(parker)
		order = append(order, "event after Resume")
	})
	k.Run()
	want := []stamp{{0, 1}, {5 * time.Millisecond, 2}, {5*time.Millisecond + time.Microsecond, 3}}
	if len(traced) != len(want) {
		t.Fatalf("traced %v, want %v: Resume must not add an event", traced, want)
	}
	for i := range want {
		if traced[i] != want[i] {
			t.Fatalf("traced %v, want %v", traced, want)
		}
	}
	if resumedIn != want[1] {
		t.Fatalf("process resumed during event %v, want the resuming event %v", resumedIn, want[1])
	}
	if len(order) != 3 || order[0] != "resumed" || order[1] != "event after Resume" || order[2] != "woke" {
		t.Fatalf("order = %v", order)
	}
	if !parker.Done() {
		t.Fatal("parker did not finish")
	}
}

// TestResumeRejectsProcNotParked: resuming a finished process, whose
// coroutine has ended, is a programming error and panics.
func TestResumeRejectsProcNotParked(t *testing.T) {
	k := New(1)
	defer k.Close()
	done := k.Go("done", func(p *Proc) {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Resume of a finished process did not panic")
		}
	}()
	k.Resume(done)
}

// TestCloseUnwindsParkedProc: a process blocked in a direct Park has no
// pending wakeup, and Close still unwinds it (its defers run, the code
// after Park does not).
func TestCloseUnwindsParkedProc(t *testing.T) {
	k := New(1)
	unwound := false
	k.Go("parked", func(p *Proc) {
		defer func() { unwound = true }()
		p.Park()
		t.Error("parked process resumed without Resume")
	})
	k.Run()
	if unwound {
		t.Fatal("parked process unwound before Close")
	}
	k.Close()
	if !unwound {
		t.Fatal("Close did not unwind the parked process")
	}
}

// TestKernelDropsFinishedProcs: a kernel that keeps spawning short
// processes holds on to its live ones only, not to every one it spawned.
func TestKernelDropsFinishedProcs(t *testing.T) {
	k := New(1)
	defer k.Close()
	live := k.Go("live", func(p *Proc) { p.Park() })
	for range 1000 {
		k.GoJob("job", func(p *Proc, arg any) { p.Sleep(time.Microsecond) }, nil)
		k.Run()
	}
	if n := len(k.procs); n > 4 {
		t.Fatalf("kernel holds %d processes after 1,000 finished, want at most 4", n)
	}
	if k.procs[0] != live {
		t.Fatal("the parked process was dropped")
	}
}

// TestCloseUnwindsParkedProcsInSpawnOrder: Close unwinds parked processes
// in the order they were spawned, so their defers run deterministically,
// also after finished processes between them were dropped.
func TestCloseUnwindsParkedProcsInSpawnOrder(t *testing.T) {
	k := New(1)
	var unwound, want []int
	for i := range 32 {
		k.Go("proc", func(p *Proc) {
			if i%2 == 1 {
				return
			}
			defer func() { unwound = append(unwound, i) }()
			p.Park()
		})
		k.Run()
		if i%2 == 0 {
			want = append(want, i)
		}
	}
	k.Close()
	if fmt.Sprint(unwound) != fmt.Sprint(want) {
		t.Fatalf("Close unwound %v, want spawn order %v", unwound, want)
	}
}
