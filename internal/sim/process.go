package sim

import (
	"fmt"
	"iter"
	"time"
)

// unit is the (empty) value exchanged over a process's coroutine switch.
type unit = struct{}

// abortError is the sentinel panic value used to unwind aborted processes.
type abortError struct{}

func (abortError) Error() string { return "sim: process aborted" }

// Proc is a cooperative simulation process. Exactly one process (or the
// kernel) runs at a time; a process yields control back to the kernel by
// blocking in virtual time (Sleep, Signal.Wait, Mutex.Lock, Park). All Proc
// methods must be called from the process itself while it is running.
//
// Processes are continuations, not goroutines: each Proc owns an iter.Pull
// coroutine, parking is a same-thread stack switch (yield), and the kernel
// resumes a runnable process with another (resume). No channel rendezvous,
// no scheduler round-trip through the Go runtime — the whole simulation is
// one OS-schedulable flow of control. Finished processes are recycled: the
// coroutine body is a trampoline loop that parks at a reuse point when its
// current function returns, and Kernel.GoJob hands the idle coroutine its
// next body, so steady-state spawning allocates nothing (see Kernel.spawn).
type Proc struct {
	k      *Kernel
	name   string
	body   func(p *Proc, arg any) // runs as body(p, arg)
	arg    any
	resume func() (unit, bool) // kernel side: run until next park
	stop   func()              // kernel side: unwind (Kernel.Close)
	yield  func(unit) bool     // process side: park, false = aborting
	done   bool
	parked bool
	// gen distinguishes incarnations of a recycled Proc: wakeup events
	// record the generation they were scheduled for, and the kernel drops
	// wakeups whose generation is stale (the body they targeted finished
	// and the coroutine now runs a different spawn).
	gen uint32
}

// main is the coroutine trampoline: it runs the current body, parks at the
// reuse point, and loops when the kernel hands it the next body. Aborts
// (Kernel.Close stopping a parked process) unwind the body via an
// abortError panic that is recovered here, ending the coroutine; genuine
// panics from a body are re-raised and propagate out of Kernel.Step to the
// caller of Kernel.Run.
func (p *Proc) main(yield func(unit) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortError); !ok {
				panic(r)
			}
		}
	}()
	p.yield = yield
	for {
		p.body(p, p.arg)
		p.done = true
		p.body, p.arg = nil, nil
		if !yield(unit{}) {
			return // kernel closed while idle in the free pool
		}
	}
}

// spawn readies a Proc for a new body: recycled from the free pool when
// possible, otherwise a fresh coroutine. The caller assigns the body and
// schedules the start event.
func (k *Kernel) spawn(name string) *Proc {
	if k.closed {
		// The kernel is shut down: hand back an inert Proc (never
		// registered, never scheduled) so late spawners don't crash.
		return &Proc{k: k, name: name, parked: true}
	}
	var p *Proc
	if n := len(k.freeProcs); n > 0 {
		p = k.freeProcs[n-1]
		k.freeProcs[n-1] = nil
		k.freeProcs = k.freeProcs[:n-1]
		p.done = false
	} else {
		p = &Proc{k: k}
		p.resume, p.stop = iter.Pull(p.main)
	}
	p.name = name
	p.parked = true // blocked awaiting its start event
	k.procs[p] = struct{}{}
	return p
}

// Go spawns fn as a new process, like GoJob. fn starts executing at the
// current virtual time, after already-scheduled events for this instant.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc { return k.GoJob(name, goBody, fn) }

// goBody is the body of Go: its func(*Proc) is the argument.
func goBody(p *Proc, fn any) { fn.(func(*Proc))(p) }

// GoJob spawns fn(p, arg) as a new process, starting at the current
// virtual time after already-scheduled events for this instant. A
// package-level fn plus a recycled arg struct spawns without allocating.
func (k *Kernel) GoJob(name string, fn func(p *Proc, arg any), arg any) *Proc {
	p := k.spawn(name)
	p.body, p.arg = fn, arg
	k.scheduleProc(k.now, p)
	return p
}

// transfer hands control to p until it parks or finishes. gen is the
// process generation the wakeup was scheduled for; a stale generation means
// the target body already finished and the Proc was recycled, so the wakeup
// is dropped. Called only from the kernel event loop.
func (k *Kernel) transfer(p *Proc, gen uint32) {
	if p.done || p.gen != gen {
		return
	}
	p.parked = false
	_, idle := p.resume()
	if p.done {
		delete(k.procs, p)
		p.gen++
		if idle {
			// The trampoline parked at its reuse point: pool the coroutine.
			k.freeProcs = append(k.freeProcs, p)
		}
	}
}

// Park blocks the process until the kernel resumes it. Sleep, Signal
// and Mutex park after scheduling or registering their own wakeup;
// called directly, Park schedules nothing, and the process stays parked
// until an event hands it to Kernel.Resume (or Kernel.Close unwinds it).
// The waker holds the *Proc and decides at run time when it continues.
func (p *Proc) Park() {
	p.parked = true
	if !p.yield(unit{}) {
		panic(abortError{})
	}
	p.parked = false
}

// Resume runs p, blocked in a direct Park, inline in the calling event
// until it parks again or finishes. It is no event of its own: the tracer
// sees the resumed code as part of the event that called Resume. Call it
// only from event context (a Schedule or After callback), never from a
// process, and only on a process no other wakeup is pending for.
func (k *Kernel) Resume(p *Proc) {
	if !p.parked {
		panic("sim: Resume of a process that is not parked")
	}
	k.transfer(p, p.gen)
}

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep blocks the process for d of virtual time. Non-positive durations
// still yield, resuming after events already scheduled for this instant.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.k.scheduleProc(p.k.now+d, p)
	p.Park()
}

func (p *Proc) String() string { return fmt.Sprintf("sim.Proc(%s)", p.name) }

// Signal is a one-shot broadcast condition: waiters are all released (in
// Wait order) once Fire is called. Waiting on an already-fired signal
// returns immediately. The zero value is not usable; create signals with
// NewSignal.
//
// A waiter is a process (Wait) or a callback (WaitArg); both kinds share
// one FIFO. The overwhelmingly common case — a completion signal with
// exactly one waiter (MPI request done, rendezvous CTS) — is held in an
// inline slot, so waiting allocates nothing; additional waiters overflow
// into a slice behind a pointer, which keeps the Signal itself as small
// as the single-waiter case needs.
type Signal struct {
	k     *Kernel
	fired bool
	w0    waiter    // first waiter, inline
	more  *[]waiter // further waiters, in Wait order
}

// waiter is one queued wakeup: a process (fn nil, arg the *Proc) or a
// callback fn(arg).
type waiter struct {
	fn  func(any)
	arg any
}

func (w waiter) empty() bool { return w.fn == nil && w.arg == nil }

// wake schedules w at the current instant: a process's transfer, or a
// callback in the same (time, seq) slot that transfer would take.
func (k *Kernel) wake(w waiter) {
	if w.fn == nil {
		k.scheduleProc(k.now, w.arg.(*Proc))
		return
	}
	k.schedule(k.now, w.fn, w.arg, 0)
}

// NewSignal creates an unfired Signal on this kernel.
func (k *Kernel) NewSignal() *Signal { return &Signal{k: k} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire releases all current and future waiters. It may be called from the
// kernel loop or from a process; waiters resume via scheduled events at the
// current virtual time, in the order they began waiting. Fire is idempotent.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if !s.w0.empty() {
		s.k.wake(s.w0)
		s.w0 = waiter{}
	}
	if s.more != nil {
		for _, w := range *s.more {
			s.k.wake(w)
		}
		s.more = nil
	}
}

// Reset rearms a fired signal so it can gate the next occurrence of a
// recurring condition (mpi recycles pooled request and rendezvous signals
// instead of allocating one per message). It must only be called on a
// fired signal, which by construction has no waiters.
func (s *Signal) Reset() { s.fired = false }

// FireAfter schedules the signal to fire d from now — k.After(d, s.Fire)
// without the method-value allocation.
func (s *Signal) FireAfter(d time.Duration) { s.k.ScheduleArg(s.k.now+d, fireSignal, s) }

// fireSignal is the event of FireAfter: the signal is its argument.
func fireSignal(s any) { s.(*Signal).Fire() }

// Wait blocks p until the signal fires. p must be the calling process.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.add(waiter{arg: p})
	p.Park()
}

// WaitArg is Wait for code running in event context: it reports true
// when the signal has already fired. Otherwise it queues fn(arg), which
// Fire schedules in the (time, seq) slot a waiting process's wakeup
// would take, and returns false.
func (s *Signal) WaitArg(fn func(any), arg any) bool {
	if s.fired {
		return true
	}
	s.add(waiter{fn, arg})
	return false
}

func (s *Signal) add(w waiter) {
	switch {
	case s.w0.empty():
		// w0 empty implies no waiters at all: Fire and Reset clear both
		// slots, and overflow only ever follows an occupied w0.
		s.w0 = w
	case s.more == nil:
		s.more = &[]waiter{w}
	default:
		*s.more = append(*s.more, w)
	}
}

// popFront removes element 0 by compacting in place, keeping the slice's
// capacity for reuse and zeroing the vacated tail slot so the backing
// array never pins consumed values (a reslice would pin the whole prefix).
func popFront[T any](s *[]T) {
	v := *s
	n := copy(v, v[1:])
	var zero T
	v[n] = zero
	*s = v[:n]
}
