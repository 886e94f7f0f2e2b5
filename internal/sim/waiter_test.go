package sim

import (
	"fmt"
	"testing"
	"time"
)

// stamp is the (time, seq) of an executed event.
type stamp struct {
	at  Time
	seq uint64
}

// traced installs a tracer recording every executed event; the last
// element is the event running now.
func traced(k *Kernel) *[]stamp {
	var s []stamp
	k.SetTracer(func(at Time, seq uint64) { s = append(s, stamp{at, seq}) })
	return &s
}

// waiterRun is what a scenario of waiters observed: the order in which
// they continued, the event each continued in, and the whole stream.
type waiterRun struct {
	order  []int
	wokeIn []stamp
	events []stamp
}

func (r *waiterRun) woke(i int, events *[]stamp) {
	r.order = append(r.order, i)
	r.wokeIn = append(r.wokeIn, (*events)[len(*events)-1])
}

// register makes waiter i wait at the current instant in one event of
// its own: a process's start event (kind 'p') or a callback event (kind
// 'c'), so both kinds take the same slots.
func register(k *Kernel, kind byte, proc func(p *Proc), callback func()) {
	if kind == 'p' {
		k.Go("waiter", proc)
	} else {
		k.Schedule(k.Now(), callback)
	}
}

// signalWaiters has one waiter per kind letter wait on a signal, in
// order, and fires it at 1 ms.
func signalWaiters(kinds string) waiterRun {
	k := New(1)
	defer k.Close()
	events := traced(k)
	s := k.NewSignal()
	var run waiterRun
	for i := range len(kinds) {
		var cont func(any)
		cont = func(any) { run.woke(i, events) }
		register(k, kinds[i],
			func(p *Proc) { s.Wait(p); run.woke(i, events) },
			func() {
				if s.WaitArg(cont, nil) {
					panic("signal fired early")
				}
			})
	}
	k.After(time.Millisecond, s.Fire)
	k.Run()
	run.events = *events
	return run
}

// mutexWaiters has a process hold a mutex for 1 ms while one waiter per
// kind letter queues on it, in order. When barge is set, the holder
// unlocks and locks again in one event, so the woken head waiter finds
// the mutex taken and queues again, and the holder keeps it 1 ms more.
// Each waiter holds the mutex for 1 µs.
func mutexWaiters(kinds string, barge bool) waiterRun {
	k := New(1)
	defer k.Close()
	events := traced(k)
	m := k.NewMutex()
	var run waiterRun
	k.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(time.Millisecond)
		if barge {
			m.Unlock()
			m.Lock(p)
			p.Sleep(time.Millisecond)
		}
		m.Unlock()
	})
	unlock := func(any) { m.Unlock() }
	for i := range len(kinds) {
		var lock func(any)
		lock = func(any) {
			if m.LockArg(lock, nil) {
				run.woke(i, events)
				k.ScheduleArg(k.Now()+time.Microsecond, unlock, nil)
			}
		}
		register(k, kinds[i],
			func(p *Proc) {
				m.Lock(p)
				run.woke(i, events)
				p.Sleep(time.Microsecond)
				m.Unlock()
			},
			func() { lock(nil) })
	}
	k.Run()
	run.events = *events
	return run
}

// sameRun requires a scenario run with callback waiters to match the
// all-process run: the same wake order, each waiter continuing in the
// event its process counterpart continued in, and the same stream.
func sameRun(t *testing.T, name string, got, want waiterRun) {
	t.Helper()
	if fmt.Sprint(got.order) != fmt.Sprint(want.order) {
		t.Errorf("%s: wake order %v, processes woke in %v", name, got.order, want.order)
	}
	if fmt.Sprint(got.wokeIn) != fmt.Sprint(want.wokeIn) {
		t.Errorf("%s: waiters continued in events %v, processes in %v", name, got.wokeIn, want.wokeIn)
	}
	if fmt.Sprint(got.events) != fmt.Sprint(want.events) {
		t.Errorf("%s: event stream %v, with processes %v", name, got.events, want.events)
	}
}

// TestSignalCallbackWaitersShareFIFO: callbacks and processes waiting on
// one Signal are released in wait order, and each callback runs in the
// (time, seq) slot of the wakeup a process in its place would get.
func TestSignalCallbackWaitersShareFIFO(t *testing.T) {
	procs := signalWaiters("pppp")
	if fmt.Sprint(procs.order) != "[0 1 2 3]" {
		t.Fatalf("processes woke in %v, want wait order", procs.order)
	}
	for _, kinds := range []string{"cccc", "cpcp", "pcpc", "ppcc"} {
		sameRun(t, kinds, signalWaiters(kinds), procs)
	}
}

// TestMutexCallbackWaitersShareFIFO: callbacks and processes queued on
// one Mutex acquire it in queue order, each callback in the slot of the
// handoff a process in its place would get.
func TestMutexCallbackWaitersShareFIFO(t *testing.T) {
	procs := mutexWaiters("pppp", false)
	if fmt.Sprint(procs.order) != "[0 1 2 3]" {
		t.Fatalf("processes acquired in %v, want queue order", procs.order)
	}
	for _, kinds := range []string{"cccc", "cpcp", "pcpc", "ppcc"} {
		sameRun(t, kinds, mutexWaiters(kinds, false), procs)
	}
}

// TestLockArgBargedRequeuesAtTail: when the holder unlocks and locks
// again before the woken head waiter runs, a callback waiter that finds
// the mutex taken queues again at the tail, exactly as Lock's loop does
// for a process, and loses its turn to the waiter behind it.
func TestLockArgBargedRequeuesAtTail(t *testing.T) {
	procs := mutexWaiters("pp", true)
	if fmt.Sprint(procs.order) != "[1 0]" {
		t.Fatalf("processes acquired in %v, want [1 0]: the barged head requeues behind the other", procs.order)
	}
	for _, kinds := range []string{"cc", "cp", "pc"} {
		sameRun(t, kinds, mutexWaiters(kinds, true), procs)
	}
}

// TestWaitArgAndLockArgNeedNotWait: on a fired signal and a free mutex
// the callback forms report true and queue nothing.
func TestWaitArgAndLockArgNeedNotWait(t *testing.T) {
	k := New(1)
	defer k.Close()
	never := func(any) { t.Error("callback queued though no wait was needed") }
	s := k.NewSignal()
	s.Fire()
	if !s.WaitArg(never, nil) {
		t.Fatal("WaitArg on a fired signal reported a wait")
	}
	m := k.NewMutex()
	if !m.LockArg(never, nil) || !m.Locked() {
		t.Fatal("LockArg on a free mutex did not take it")
	}
	m.Unlock()
	k.Run()
	if k.Executed != 0 {
		t.Fatalf("%d events ran, want none", k.Executed)
	}
}
