// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a pending-event set ordered by
// (time, insertion sequence), so simulations are fully reproducible: two
// runs with the same inputs schedule and execute events in the same order.
//
// On top of the raw event loop, the package offers cooperative processes
// (Proc): coroutines that run one at a time under kernel control and block
// in virtual time via Sleep, Signal.Wait, or Mutex.Lock. This lets higher
// layers (TCP flows, MPI ranks, applications) be written in ordinary
// blocking style while remaining deterministic. Code running in event
// context waits on the same Signal and Mutex through callback waiters
// (Signal.WaitArg, Mutex.LockArg), which run in the (time, seq) slot a
// waiting process's wakeup would take.
//
// # Hot-path design
//
// At sweep scale the kernel executes millions of events per simulated run,
// so the scheduling structures are built to allocate nothing in steady
// state:
//
//   - Events live by value in a slab ([]event) recycled through a free
//     list; the priority queue is an index-based min-heap over the slab,
//     so Schedule performs no per-event heap allocation and no
//     container/heap interface calls.
//   - Same-instant events — Schedule(Now(), …), process wakeups from
//     Signal.Fire / Mutex.Unlock, TCP pump reschedules; the
//     dominant event class — bypass the heap entirely: they are appended
//     to a FIFO ring buffer that Step drains ahead of any later-time heap
//     event. The (time, seq) execution order is identical to a single
//     heap (see Step for the invariant), just cheaper.
//   - Every event is a deferred call fn(arg), a package-level function
//     plus its argument (ScheduleArg); a process wakeup is wakeProc with
//     the *Proc as its argument. Sleep, the synchronization primitives,
//     Signal.FireAfter and the TCP flows' round steps capture nothing;
//     Schedule and After pass their func() as the argument of one
//     package-level adapter.
//   - Processes themselves are coroutines (see Proc): parking is a
//     same-thread coroutine switch, not a channel handoff through the Go
//     scheduler. A Sleep whose wakeup would be the next event runs that
//     wakeup in place and does not switch at all (Kernel.wakeInPlace).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is an instant in virtual time, measured as an offset from the start
// of the simulation. It reuses time.Duration for convenient arithmetic and
// formatting.
type Time = time.Duration

// event is a scheduled call fn(arg), stored by value in the kernel's slab.
type event struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// Kernel is a discrete-event simulator instance. A Kernel and everything
// scheduled on it must be used from a single OS-level flow of control: the
// kernel goroutine and its cooperative processes hand off execution
// explicitly, so no mutexes are needed.
type Kernel struct {
	now Time
	seq uint64

	// slab stores every pending event by value; free lists recycled slots.
	slab []event
	free []int32
	// heap is an index min-heap over slab, ordered by (at, seq), holding
	// the events scheduled for a future instant.
	heap []int32
	// ring is a power-of-two circular FIFO of slab indices holding the
	// events scheduled for the current instant.
	ring     []int32
	ringHead uint32
	ringTail uint32

	seed int64
	rng  *rand.Rand
	// procs holds the processes spawned, in spawn order, less finished
	// ones GoJob has dropped.
	procs  []*Proc
	closed bool
	tracer Tracer

	// woken is the process whose own wakeup event is running, and bound
	// the latest instant the running Run or RunUntil may reach (-1
	// outside both): Proc.Sleep reads them to run its wakeup in place.
	woken *Proc
	bound Time

	// Executed counts events processed, for diagnostics and tests,
	// including the wakeups Proc.Sleep runs in place.
	Executed uint64
}

// Tracer observes every executed event as (time, seq) just before its
// callback runs. The (time, seq) stream fully determines execution order,
// so a recorded stream is a byte-exact determinism lock across kernel
// implementations.
type Tracer func(at Time, seq uint64)

// SetTracer installs (nil clears) the kernel's event observer.
func (k *Kernel) SetTracer(t Tracer) { k.tracer = t }

// NewHook, when non-nil, runs on every kernel New returns. It is a test
// seam: the event-order golden tests use it to attach Tracers to kernels
// constructed deep inside higher layers (exp.Run). Leave it nil outside
// tests.
var NewHook func(*Kernel)

// New creates a kernel with the given RNG seed. The RNG is the only source
// of randomness in the simulation; a fixed seed yields a fixed trajectory.
func New(seed int64) *Kernel {
	k := &Kernel{seed: seed, bound: -1}
	if NewHook != nil {
		NewHook(k)
	}
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It is built from
// New's seed on the first call, so a run that never draws never seeds it;
// the stream is the same either way.
func (k *Kernel) Rand() *rand.Rand {
	if k.rng == nil {
		k.rng = rand.New(rand.NewSource(k.seed))
	}
	return k.rng
}

// alloc takes a slab slot (recycling freed ones), assigns the next
// sequence number and fills the event in.
func (k *Kernel) alloc(at Time, fn func(any), arg any) int32 {
	k.seq++
	var idx int32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slab = append(k.slab, event{})
		idx = int32(len(k.slab) - 1)
	}
	ev := &k.slab[idx]
	ev.at, ev.seq, ev.fn, ev.arg = at, k.seq, fn, arg
	return idx
}

// ScheduleArg runs fn(arg) at virtual time at. Times in the past are
// clamped to the present: the event runs at Now, after already-queued
// events for Now. A package-level fn with a pointer arg schedules without
// allocating.
func (k *Kernel) ScheduleArg(at Time, fn func(any), arg any) {
	if k.closed {
		return
	}
	if at <= k.now {
		// Same-instant FIFO: runs at Now, after already-queued events for
		// Now, in insertion order — exactly the (time, seq) heap order,
		// without the heap churn.
		k.ringPush(k.alloc(k.now, fn, arg))
		return
	}
	k.heapPush(k.alloc(at, fn, arg))
}

// Schedule runs fn at virtual time at, like ScheduleArg.
func (k *Kernel) Schedule(at Time, fn func()) { k.ScheduleArg(at, call, fn) }

// After runs fn d from now. Negative delays are clamped to zero.
func (k *Kernel) After(d time.Duration, fn func()) { k.ScheduleArg(k.now+d, call, fn) }

// call is the event of Schedule and After: their func() is its argument.
func call(fn any) { fn.(func())() }

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
//
// Order invariant: ring events all carry at == now (they were enqueued
// while the clock stood at their instant, and the ring is fully drained
// before the clock moves). A heap event with at == now was necessarily
// pushed while the clock was still earlier, so its seq is smaller than
// every ring entry's; draining such heap events first, then the ring,
// then advancing to the heap's next instant reproduces exact (time, seq)
// order.
func (k *Kernel) Step() bool {
	var idx int32
	if k.ringHead != k.ringTail {
		if len(k.heap) > 0 && k.slab[k.heap[0]].at == k.now {
			idx = k.heapPop()
		} else {
			idx = k.ring[k.ringHead&uint32(len(k.ring)-1)]
			k.ringHead++
		}
	} else {
		if len(k.heap) == 0 {
			return false
		}
		idx = k.heapPop()
		k.now = k.slab[idx].at
	}
	ev := k.slab[idx]
	k.slab[idx] = event{}
	k.free = append(k.free, idx)
	k.Executed++
	if k.tracer != nil {
		k.tracer(ev.at, ev.seq)
	}
	ev.fn(ev.arg)
	return true
}

// wakeInPlace runs p's wakeup at time at without parking p, when that
// wakeup would be the very next event: it takes the next seq, advances
// the clock, counts the event and traces it, exactly as Step would. All
// four must hold, or it reports false and does nothing:
//   - p is running in its own wakeup event (wakeProc). A process that
//     another event resumed inline (Kernel.Resume) would run the rest of
//     that event at a later clock.
//   - A Run or RunUntil is in progress and at is within its bound. So a
//     bare Step never skips, and a process that sleeps past RunUntil's
//     bound stays parked.
//   - The kernel is open.
//   - No event is due first: the same-instant ring is empty, and the
//     heap's earliest event is strictly later than at (one at the same
//     instant was scheduled first).
func (k *Kernel) wakeInPlace(p *Proc, at Time) bool {
	if k.woken != p || at > k.bound || k.closed || k.ringHead != k.ringTail ||
		len(k.heap) > 0 && k.slab[k.heap[0]].at <= at {
		return false
	}
	k.seq++
	k.now = at
	k.Executed++
	if k.tracer != nil {
		k.tracer(at, k.seq)
	}
	return true
}

// Run executes events until none remain (the simulation has quiesced:
// every process is finished or blocked on a condition nothing will fire).
func (k *Kernel) Run() {
	k.bound = math.MaxInt64
	for k.Step() {
	}
	k.bound = -1
}

// RunUntil executes events with time ≤ t, then sets the clock to t.
func (k *Kernel) RunUntil(t Time) {
	k.bound = t
	for {
		if k.ringHead != k.ringTail && k.now <= t {
			k.Step()
			continue
		}
		if len(k.heap) == 0 || k.slab[k.heap[0]].at > t {
			break
		}
		k.Step()
	}
	k.bound = -1
	if k.now < t {
		k.now = t
	}
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.heap) + int(k.ringTail-k.ringHead) }

// Close unwinds every parked process, in spawn order. It must be called
// after Run returns (not from inside an event), typically deferred right
// after New in tests. Close is idempotent.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	for _, p := range k.procs {
		if p.parked {
			// Parked mid-body: stop makes the pending yield report abort,
			// unwinding the body. Never started: stop retires the coroutine
			// before it runs, so the body never executes. A finished or
			// panicked process is not parked, and its coroutine has ended.
			p.stop()
		}
	}
	k.procs = nil
	k.slab, k.free, k.heap, k.ring = nil, nil, nil, nil
	k.ringHead, k.ringTail = 0, 0
}

func (k *Kernel) String() string {
	return fmt.Sprintf("sim.Kernel{now=%v, pending=%d, executed=%d}", k.now, k.Pending(), k.Executed)
}

// --- pending-event containers ---

// less orders slab slots by (at, seq).
func (k *Kernel) less(a, b int32) bool {
	ea, eb := &k.slab[a], &k.slab[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (k *Kernel) heapPush(idx int32) {
	k.heap = append(k.heap, idx)
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (k *Kernel) heapPop() int32 {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	k.heap = h[:n]
	h = k.heap
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && k.less(h[r], h[l]) {
			small = r
		}
		if !k.less(h[small], h[i]) {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// ringPush appends to the same-instant FIFO, growing the power-of-two
// buffer when full. Head/tail are free-running uint32 counters; masking
// maps them into the buffer.
func (k *Kernel) ringPush(idx int32) {
	if n := len(k.ring); n == 0 || int(k.ringTail-k.ringHead) == n {
		k.growRing()
	}
	k.ring[k.ringTail&uint32(len(k.ring)-1)] = idx
	k.ringTail++
}

func (k *Kernel) growRing() {
	n := len(k.ring) * 2
	if n == 0 {
		n = 16
	}
	grown := make([]int32, n)
	cnt := int(k.ringTail - k.ringHead)
	for i := 0; i < cnt; i++ {
		grown[i] = k.ring[(k.ringHead+uint32(i))&uint32(len(k.ring)-1)]
	}
	k.ring = grown
	k.ringHead, k.ringTail = 0, uint32(cnt)
}
