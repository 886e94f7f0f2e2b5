package sim

import (
	"fmt"
	"iter"
	"slices"
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
// Processes are coroutines, not goroutines: each Proc owns an iter.Pull
// coroutine that runs its body once, parking is a same-thread stack switch
// (yield), and the kernel resumes a runnable process with another
// (resume). No channel rendezvous, no scheduler round-trip through the Go
// runtime — the whole simulation is one OS-schedulable flow of control.
// A process's wakeup is an ordinary event: wakeProc with the *Proc as its
// argument.
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
}

// main is the coroutine: it runs the body once and returns, which ends
// the coroutine. Aborts (Kernel.Close stopping a parked process) unwind the
// body via an abortError panic that is recovered here; genuine panics from
// a body are re-raised and propagate out of Kernel.Step to the caller of
// Kernel.Run.
func (p *Proc) main(yield func(unit) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortError); !ok {
				panic(r)
			}
		}
	}()
	p.yield = yield
	p.body(p, p.arg)
	p.done = true
	p.body, p.arg = nil, nil
}

// Go spawns fn as a new process, like GoJob. fn starts executing at the
// current virtual time, after already-scheduled events for this instant.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc { return k.GoJob(name, goBody, fn) }

// goBody is the body of Go: its func(*Proc) is the argument.
func goBody(p *Proc, fn any) { fn.(func(*Proc))(p) }

// GoJob spawns fn(p, arg) as a new process, starting at the current
// virtual time after already-scheduled events for this instant.
func (k *Kernel) GoJob(name string, fn func(p *Proc, arg any), arg any) *Proc {
	// The process is parked until its start event runs.
	p := &Proc{k: k, name: name, body: fn, arg: arg, parked: true}
	if k.closed {
		// The kernel is shut down: hand back an inert Proc (never
		// registered, never scheduled) so late spawners don't crash.
		return p
	}
	p.resume, p.stop = iter.Pull(p.main)
	if len(k.procs) == cap(k.procs) {
		// Only parked processes matter to Close: drop the finished ones
		// before growing, and leave room for as many again, so a kernel
		// that keeps spawning holds only its live processes.
		k.procs = slices.DeleteFunc(k.procs, (*Proc).Done)
		k.procs = slices.Grow(k.procs, len(k.procs))
	}
	k.procs = append(k.procs, p)
	k.ScheduleArg(k.now, wakeProc, p)
	return p
}

// wakeProc is the event of a process wakeup: the parked *Proc is its
// argument. It is the wakeup of GoJob's start, Sleep, Signal.Wait and
// Mutex.Lock. While it runs, the kernel's woken names the process, so
// the process's sleeps may run their own wakeups in place.
func wakeProc(p any) {
	proc := p.(*Proc)
	k := proc.k
	k.woken = proc
	k.Resume(proc)
	k.woken = nil
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
}

// Resume runs p, blocked in a direct Park, inline in the calling event
// until it parks again or finishes. It is no event of its own: the tracer
// sees the resumed code as part of the event that called Resume. Call it
// only from event context (a Schedule or After callback), never from a
// process, and only on a process no other wakeup is pending for. Every
// wakeup resumes a process through it, wakeProc's included.
func (k *Kernel) Resume(p *Proc) {
	if !p.parked {
		panic("sim: Resume of a process that is not parked")
	}
	p.parked = false
	p.resume()
}

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep blocks the process for d of virtual time. A non-positive sleep
// still runs after the events already due at this instant. Sleep parks
// only when some event is due before its wakeup; otherwise the wakeup
// would be the next event, and Sleep runs it in place (see
// Kernel.wakeInPlace), in the same (time, seq) slot.
func (p *Proc) Sleep(d time.Duration) {
	k := p.k
	at := max(k.now+d, k.now)
	if !k.wakeInPlace(p, at) {
		k.ScheduleArg(at, wakeProc, p)
		p.Park()
	}
}

func (p *Proc) String() string { return fmt.Sprintf("sim.Proc(%s)", p.name) }

// Signal is a one-shot broadcast condition: waiters are all released (in
// Wait order) once Fire is called. Waiting on an already-fired signal
// returns immediately. The zero value is not usable; create signals with
// NewSignal.
//
// A waiter is a callback: WaitArg's, or for a process in Wait, its
// wakeup. The overwhelmingly common case — a completion signal with
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

// waiter is one queued wakeup, fn(arg); a process's is wakeProc with the
// *Proc. A nil fn marks an empty slot.
type waiter struct {
	fn  func(any)
	arg any
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
	k := s.k
	if s.w0.fn != nil {
		k.ScheduleArg(k.now, s.w0.fn, s.w0.arg)
		s.w0 = waiter{}
	}
	if s.more != nil {
		for _, w := range *s.more {
			k.ScheduleArg(k.now, w.fn, w.arg)
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
	if !s.WaitArg(wakeProc, p) {
		p.Park()
	}
}

// WaitArg is Wait for code running in event context: it reports true
// when the signal has already fired. Otherwise it queues fn(arg), which
// Fire schedules in the (time, seq) slot a waiting process's wakeup
// would take, and returns false.
func (s *Signal) WaitArg(fn func(any), arg any) bool {
	if s.fired {
		return true
	}
	w := waiter{fn, arg}
	switch {
	case s.w0.fn == nil:
		// w0 empty implies no waiters at all: Fire and Reset clear both
		// slots, and overflow only ever follows an occupied w0.
		s.w0 = w
	case s.more == nil:
		s.more = &[]waiter{w}
	default:
		*s.more = append(*s.more, w)
	}
	return false
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
