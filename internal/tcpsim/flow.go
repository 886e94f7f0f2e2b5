package tcpsim

import (
	"math"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// FlowStats accumulates per-flow counters for diagnostics and tests.
type FlowStats struct {
	BytesQueued    int64
	BytesDelivered int64
	Rounds         int64
	BurstLosses    int64
	ContentionLoss int64
	Timeouts       int64
	IdleRestarts   int64
	PeakCwnd       float64

	// Fault-injection counters: rounds lost to injected (plan-driven) loss,
	// the bytes those rounds retransmitted, link-down stall episodes and
	// the total time spent stalled waiting for a dead link to come back.
	InjectedLosses int64
	RetransBytes   int64
	LinkStalls     int64
	StallTime      time.Duration
}

// Add accumulates o into s (summing counters, taking the max of peaks), for
// aggregating degraded-mode metrics across a world's flows.
func (s *FlowStats) Add(o FlowStats) {
	s.BytesQueued += o.BytesQueued
	s.BytesDelivered += o.BytesDelivered
	s.Rounds += o.Rounds
	s.BurstLosses += o.BurstLosses
	s.ContentionLoss += o.ContentionLoss
	s.Timeouts += o.Timeouts
	s.IdleRestarts += o.IdleRestarts
	if o.PeakCwnd > s.PeakCwnd {
		s.PeakCwnd = o.PeakCwnd
	}
	s.InjectedLosses += o.InjectedLosses
	s.RetransBytes += o.RetransBytes
	s.LinkStalls += o.LinkStalls
	s.StallTime += o.StallTime
}

// Flow is one direction of a TCP connection: a reliable byte stream from
// path.Src to path.Dst with congestion-window dynamics. Senders enqueue
// byte counts (message payloads are abstract); the flow reports delivery of
// stream offsets to registered callbacks in order.
type Flow struct {
	k      *sim.Kernel
	cfg    Config
	path   *netsim.Path
	policy BufferPolicy

	windowCap int // min(send buffer, receive buffer) ceiling

	cwnd      float64
	ssthresh  float64
	wmax      float64 // BIC reference point (last loss window)
	slowStart bool

	queued       int64 // total bytes ever enqueued
	sentOff      int64 // bytes handed to the network
	ackedOff     int64 // bytes acknowledged (freed from the send buffer)
	deliveredOff int64 // bytes fully received at Dst

	lastActive sim.Time
	stallUntil sim.Time // RTO stall deadline after an incast timeout
	busy       bool     // a round is in flight
	pathActive bool     // links acquired
	downWait   bool     // parked on a dead path until NotifyUp fires pathUp

	// Fault-injection state. linkGens holds the per-link registration
	// generations of the current path hold (reused scratch): releasing with
	// them makes fault teardown (link went down and evicted us) idempotent
	// while preserving the double-release panic for real accounting bugs.
	// lastArriveAt keeps delivery events monotone when injected loss or
	// jitter stretches one round's arrival, upholding delivQ's FIFO
	// invariant.
	linkGens     []uint32
	stallStart   sim.Time
	lastArriveAt sim.Time

	writeMu *sim.Mutex
	// A write blocked until the send buffer has taken all of its message
	// is pending; owed is the bytes not yet buffered. writeMu serializes
	// writers, so there is at most one. Refills run as flow events
	// (refill) and buffer what fits; only the refill that buffers the
	// last byte finishes the write and runs its continuation, so the
	// continuation runs once however many window rounds the write spans,
	// and a process writing through Send parks once and resumes once.
	pending *Write
	owed    int64

	notifies []notifyEntry
	due      []notifyEntry // deliverRound's reusable scratch for due callbacks

	// Round state. The transmit loop schedules kernel events every round,
	// each a package-level function with the flow as its argument
	// (pumpFlow, deliverRound, ackRound, refill), so no round allocates.
	// Round parameters travel in ackW/ackRoundTime/ackRateLimited/
	// ackInjLoss (one round outstanding, guarded by busy) and delivQ (a
	// FIFO of in-flight round end offsets; arrival times are monotone, so
	// events pop it in order).
	delivQ         []int64
	ackW           int64
	ackRoundTime   time.Duration
	ackRateLimited bool
	ackInjLoss     bool // the round lost a segment to injected path loss

	Stats FlowStats
}

// notifyEntry is one registered delivery callback: fn(arg) runs once the
// stream is delivered up to off.
type notifyEntry struct {
	off int64
	fn  func(any)
	arg any
}

// NewFlow opens a one-directional TCP stream over path using stack cfg and
// socket-buffer policy policy.
func NewFlow(k *sim.Kernel, path *netsim.Path, cfg Config, policy BufferPolicy) *Flow {
	f := &Flow{
		k:         k,
		cfg:       cfg,
		path:      path,
		policy:    policy,
		windowCap: cfg.WindowCap(policy),
		cwnd:      float64(initCwndSegs * mss),
		ssthresh:  math.MaxFloat64 / 4,
		slowStart: true,
		writeMu:   k.NewMutex(),
	}
	if f.windowCap < mss {
		f.windowCap = mss
	}
	// A conservative initial ssthresh only matters on long paths: cluster
	// BDPs are far below it, so local connections effectively slow-start
	// straight to their operating window. Paced senders do not suffer the
	// early ack-train losses the low initial threshold models, so they
	// keep slow-starting to the pipe capacity — GridMPI's fast ramp.
	if f.isWAN() && !cfg.Pacing {
		f.ssthresh = float64(initialSsthresh)
	}
	return f
}

// bdp returns the path's bandwidth-delay product in bytes. Callers add to
// it, so the float64 conversion rounds the product first: the Go spec says
// an explicit conversion prevents a fused multiply-add, which arm64 and
// other architectures would emit and amd64 never does, making results
// depend on the machine.
func (f *Flow) bdp() float64 {
	return float64(f.path.Bottleneck() * efficiency * f.rtt().Seconds())
}

// WindowCap returns the socket-buffer-imposed window ceiling in bytes.
func (f *Flow) WindowCap() int { return f.windowCap }

// Cwnd returns the current congestion window in bytes.
func (f *Flow) Cwnd() float64 { return f.cwnd }

// InSlowStart reports whether the flow is in slow start.
func (f *Flow) InSlowStart() bool { return f.slowStart }

// Delivered returns the stream offset fully received at the destination.
func (f *Flow) Delivered() int64 { return f.deliveredOff }

// isWAN reports whether this path counts as long-distance for the burst
// loss model.
func (f *Flow) isWAN() bool { return f.path.RTT() >= wanThreshold }

// rtt is the effective round-trip time including endpoint software costs.
func (f *Flow) rtt() time.Duration { return f.path.RTT() + 2*f.cfg.HostOverhead }

// rto is the idle-restart threshold.
func (f *Flow) rto() time.Duration {
	r := 2 * f.rtt()
	if r < minRTO {
		r = minRTO
	}
	return r
}

// Send writes n bytes from process p, blocking until the send socket
// buffer has accepted all of them (the paper's eager-mode completion
// semantics: MPI_Send returns once the data is copied into the TCP
// buffer). delivered, if non-nil, runs when the destination has received
// the last of the n bytes. Send is a Write whose continuation resumes p,
// so p parks at most once per write. Concurrent writers are serialized
// FIFO. Send allocates its record; a writer on a hot path reuses a Write
// of its own (mpi's ranks do).
func (f *Flow) Send(p *sim.Proc, n int64, delivered func()) {
	w := &Write{N: n, Then: f.resume, ThenArg: p}
	if delivered != nil {
		w.Fn, w.Arg = call, delivered
	}
	if !f.Write(w) {
		p.Park() // until the write's continuation resumes p
	}
}

// call runs a func() passed as the argument of a delivery callback.
func call(fn any) { fn.(func())() }

// resume is Send's continuation: it runs the writing process, parked in
// Send, inline.
func (f *Flow) resume(p any) { f.k.Resume(p.(*sim.Proc)) }

// fill buffers as much of the owed bytes as the send buffer has room
// for and reports whether all of them are buffered. Like write(2), it
// fills whatever space is free and waits only when there is none:
// keeping the buffer topped up keeps the congestion window fully
// utilizable. The queue accounting stays inline: a write that completes
// at once runs fill on the writer's coroutine stack, and one more frame
// there pushes a fresh coroutine's first write past its initial stack,
// costing a stack copy.
func (f *Flow) fill() bool {
	if free := f.sndbufFree(); free > 0 {
		chunk := min(f.owed, free)
		f.owed -= chunk
		f.queued += chunk
		f.Stats.BytesQueued += chunk
		f.pump()
	}
	return f.owed == 0
}

// refill is the flow event ackRound schedules for a blocked write. It
// re-checks the free space when it runs, because a SendAsyncArg (a
// rendezvous CTS) may have filled it since the ack, and once the last
// owed byte is buffered it finishes the write and runs its
// continuation.
func refill(a any) {
	f := a.(*Flow)
	if !f.fill() {
		return
	}
	w := f.pending
	f.pending = nil
	f.finish(w.Fn, w.Arg)
	w.Then(w.ThenArg)
}

// Write is a caller-owned write of N bytes (see Flow.Write): Fn(Arg),
// if Fn is non-nil, runs when the destination has received the last of
// the bytes, and Then(ThenArg) continues the writer when the write could
// not complete at once.
type Write struct {
	N       int64
	Fn      func(any)
	Arg     any
	Then    func(any)
	ThenArg any

	f *Flow
}

// Write starts w and reports whether it completed at once: the bytes
// are buffered, the delivery registered and the write lock released
// before it returns. Otherwise the write continues from event context —
// after the lock's handoff, and from the refill that buffers its last
// byte — and once it completes the flow calls w.Then(w.ThenArg) there.
// w must stay untouched until then; a pooled w makes the write
// allocation-free.
func (f *Flow) Write(w *Write) bool {
	if w.N <= 0 {
		f.notifyAt(f.queued, w.Fn, w.Arg)
		return true
	}
	w.f = f
	return f.writeMu.LockArg(lockWrite, w) && f.start(w)
}

// lockWrite is a write's lock waiter: woken by Unlock, in the slot a
// process's lock wakeup would take, it takes the lock (or queues again
// behind a writer that barged in) and starts the write.
func lockWrite(a any) {
	w := a.(*Write)
	if w.f.writeMu.LockArg(lockWrite, w) && w.f.start(w) {
		w.Then(w.ThenArg)
	}
}

// start buffers a write that holds the lock and reports whether it
// completed; if not, refill finishes it.
func (f *Flow) start(w *Write) bool {
	f.owed = w.N
	if !f.fill() {
		f.pending = w
		return false
	}
	f.finish(w.Fn, w.Arg)
	return true
}

// finish completes a fully buffered write: it registers the write's
// delivery callback fn(arg) and releases the write lock.
func (f *Flow) finish(fn func(any), arg any) {
	f.notifyAt(f.queued, fn, arg)
	f.writeMu.Unlock()
}

// SendAsyncArg enqueues n bytes without blocking for buffer space; it is
// meant for small control messages (rendezvous RTS/CTS) issued from event
// context. If fn is non-nil, fn(arg) runs when the bytes reach the
// receiver.
func (f *Flow) SendAsyncArg(n int64, fn func(any), arg any) {
	if n <= 0 {
		n = 1
	}
	f.queued += n
	f.Stats.BytesQueued += n
	f.notifyAt(f.queued, fn, arg)
	f.pump()
}

// sndbufFree returns the free space in the send socket buffer.
func (f *Flow) sndbufFree() int64 {
	return int64(f.windowCap) - (f.queued - f.ackedOff)
}

// notifyAt registers fn(arg) to run once deliveredOff ≥ off; a nil fn
// registers nothing.
func (f *Flow) notifyAt(off int64, fn func(any), arg any) {
	if fn == nil {
		return
	}
	if off <= f.deliveredOff {
		f.k.ScheduleArg(f.k.Now(), fn, arg)
		return
	}
	// Appending keeps the list in ascending offset order: every caller
	// (a 0-byte Write, finish, SendAsyncArg) passes f.queued, which
	// never decreases.
	f.notifies = append(f.notifies, notifyEntry{off: off, fn: fn, arg: arg})
}

// pumpFlow is the pump as a flow event.
func pumpFlow(a any) { a.(*Flow).pump() }

// pump transmits the next congestion-window round if the flow is idle and
// has pending data.
func (f *Flow) pump() {
	if f.busy {
		return
	}
	pending := f.queued - f.sentOff
	if pending == 0 {
		if f.pathActive {
			f.path.ReleaseGens(f.linkGens)
			f.linkGens = f.linkGens[:0]
			f.pathActive = false
		}
		return
	}
	if f.path.Down() {
		f.stallOnDown()
		return
	}
	now := f.k.Now()
	if now < f.stallUntil {
		f.k.ScheduleArg(f.stallUntil, pumpFlow, f)
		return
	}
	if f.cfg.SlowStartAfterIdle && f.lastActive > 0 && now-f.lastActive > f.rto() {
		f.idleRestart()
	}
	if !f.pathActive {
		f.linkGens = f.path.AcquireGens(f.linkGens[:0])
		f.pathActive = true
	}
	w := int64(f.window())
	if w > pending {
		w = pending
	}
	if w < int64(mss) && pending >= int64(mss) {
		w = int64(mss)
	}
	rate := f.path.ShareRate() * efficiency
	serial := time.Duration(float64(w) / rate * float64(time.Second))
	rtt := f.rtt()
	// The ack clock only gates the sender in proportion to how much of
	// the usable window this round consumed: a full window must wait a
	// whole RTT for acks, while a short round (message tail, sparse
	// sends) leaves cwnd headroom and transmission stays continuous.
	// Sustained throughput is thus capped at exactly window/RTT.
	gate := time.Duration(float64(rtt) * float64(w) / f.window())
	if gate > rtt {
		gate = rtt
	}
	roundTime := gate
	rateLimited := serial >= gate
	if serial > roundTime {
		roundTime = serial
	}
	arrive := f.path.OneWay + 2*f.cfg.HostOverhead + serial

	// Injected faults. Both guards are exact zero-checks so a run without a
	// fault plan draws nothing from the kernel RNG — the RNG stream, and
	// with it the event-order golden, is untouched. A lost round is
	// retransmitted after one more RTT (data and ack both late); the
	// congestion response is applied when the round completes, via
	// ackInjLoss. Jitter stretches data and ack clock alike, so arrival
	// times stay monotone and delivQ's FIFO matching stays valid — the
	// lastArriveAt clamp below is the belt to that suspenders.
	injLoss := false
	if p := f.path.ExtraLoss(); p > 0 && f.k.Rand().Float64() < p {
		injLoss = true
		f.Stats.InjectedLosses++
		f.Stats.RetransBytes += w
		arrive += rtt
		roundTime += rtt
	}
	if j := f.path.Jitter(); j > 0 {
		dj := time.Duration(f.k.Rand().Float64() * float64(j))
		arrive += dj
		roundTime += dj
	}
	arriveAt := now + arrive
	if arriveAt < f.lastArriveAt {
		arriveAt = f.lastArriveAt
	}
	f.lastArriveAt = arriveAt

	f.busy = true
	f.sentOff += w
	f.Stats.Rounds++
	f.delivQ = append(f.delivQ, f.sentOff)
	f.k.ScheduleArg(arriveAt, deliverRound, f)
	f.ackW, f.ackRoundTime, f.ackRateLimited, f.ackInjLoss = w, roundTime, rateLimited, injLoss
	f.k.ScheduleArg(now+roundTime, ackRound, f)
}

// stallOnDown parks the flow while its path has a dead link: registrations
// are dropped (idempotently — the dead link already voided its own) and the
// flow re-pumps when the path recovers. Pending data stays queued, so the
// transfer resumes where it stalled instead of panicking in Release.
func (f *Flow) stallOnDown() {
	if f.pathActive {
		f.path.ReleaseGens(f.linkGens)
		f.linkGens = f.linkGens[:0]
		f.pathActive = false
	}
	if f.downWait {
		return
	}
	f.downWait = true
	f.Stats.LinkStalls++
	f.stallStart = f.k.Now()
	f.path.NotifyUp(f.pathUp) // the method value allocates only on a stall
}

// pathUp is the NotifyUp callback: account the stall and resume the
// transmit loop. It runs inside the link-up fault event.
func (f *Flow) pathUp() {
	if !f.downWait {
		return
	}
	f.downWait = false
	f.Stats.StallTime += f.k.Now() - f.stallStart
	f.pump()
}

// window is the usable window this round.
func (f *Flow) window() float64 {
	w := f.cwnd
	if c := float64(f.windowCap); w > c {
		w = c
	}
	if m := float64(mss); w < m {
		w = m
	}
	return w
}

// deliverRound is the flow event completing the oldest in-flight round's
// arrival: it advances the receive offset and fires due callbacks in
// order. Rounds deliver in schedule order (arrival times never decrease:
// round n+1 starts no earlier than round n's serialization ends), so a
// FIFO of end offsets matches events to rounds without a per-round
// closure.
func deliverRound(a any) {
	f := a.(*Flow)
	endOff := f.delivQ[0]
	f.delivQ = f.delivQ[:copy(f.delivQ, f.delivQ[1:])]
	if endOff <= f.deliveredOff {
		return
	}
	f.Stats.BytesDelivered += endOff - f.deliveredOff
	f.deliveredOff = endOff
	n := 0
	for n < len(f.notifies) && f.notifies[n].off <= f.deliveredOff {
		n++
	}
	if n == 0 {
		return
	}
	// Move the due prefix to the reusable scratch, then compact the rest
	// in place: reslicing (f.notifies = f.notifies[n:]) would pin the
	// consumed prefix — and every callback it captured — in the backing
	// array, and surrender the array's front capacity so later inserts
	// reallocate. Callbacks run from the scratch because they may append
	// fresh notifies (rendezvous chains) while we iterate.
	f.due = append(f.due[:0], f.notifies[:n]...)
	m := copy(f.notifies, f.notifies[n:])
	clear(f.notifies[m:])
	f.notifies = f.notifies[:m]
	for i := range f.due {
		f.due[i].fn(f.due[i].arg)
	}
	clear(f.due) // release the callback refs until the next round
	f.due = f.due[:0]
}

// ackRound is the flow event completing the outstanding window round
// (busy guarantees there is exactly one) with the parameters pump
// recorded: it frees buffer space, grows or shrinks the congestion window,
// refills a blocked writer's bytes, and continues transmitting.
func ackRound(a any) {
	f := a.(*Flow)
	f.ackedOff += f.ackW
	f.lastActive = f.k.Now()
	f.updateCwnd(f.ackW, f.ackRoundTime, f.ackRateLimited)
	f.busy = false
	if f.pending != nil && f.sndbufFree() > 0 {
		// Refill first, then pump: the refill event is scheduled before
		// the pump event, so the next round sends a full window instead
		// of the leftover tail.
		f.k.ScheduleArg(f.k.Now(), refill, f)
		f.k.ScheduleArg(f.k.Now(), pumpFlow, f)
		return
	}
	f.pump()
}

// updateCwnd applies slow start / congestion avoidance plus the two loss
// models (slow-start burst overshoot; contention on shared links).
func (f *Flow) updateCwnd(w int64, roundTime time.Duration, rateLimited bool) {
	cap64 := float64(f.windowCap)
	if f.ackInjLoss {
		// The round lost a segment to injected path loss and recovered by
		// fast retransmit: multiplicative decrease, no growth this round.
		f.ackInjLoss = false
		f.wmax = f.cwnd
		f.cwnd *= 0.5
		f.ssthresh = f.cwnd
		f.slowStart = false
		if f.cwnd < float64(mss) {
			f.cwnd = float64(mss)
		}
		return
	}
	if f.slowStart {
		f.cwnd += float64(w)
		queue := float64(burstQueue)
		if f.cfg.Pacing {
			queue *= pacingBurstFactor
		}
		burst := f.bdp() + queue
		switch {
		case f.isWAN() && f.cwnd > burst && f.cwnd < cap64:
			f.burstLoss()
		case f.cwnd >= f.ssthresh:
			f.slowStart = false
			if f.cwnd > f.wmax {
				f.wmax = f.cwnd
			}
		case f.cwnd >= cap64:
			f.slowStart = false
			f.wmax = f.cwnd
		}
	} else {
		frac := float64(w) / f.cwnd
		if frac > 1 {
			frac = 1
		}
		inc := f.bicIncrement()
		if f.cfg.Pacing {
			inc *= pacingGrowthFactor
		}
		f.cwnd += float64(inc * frac) // rounded: no fused multiply-add (see bdp)
		if rateLimited {
			f.maybeContentionLoss(roundTime)
		}
	}
	if f.cwnd > cap64 {
		f.cwnd = cap64
		f.slowStart = false
	}
	if f.cwnd < float64(mss) {
		f.cwnd = float64(mss)
	}
	if f.cwnd > f.Stats.PeakCwnd {
		f.Stats.PeakCwnd = f.cwnd
	}
}

// bicIncrement returns the per-RTT window increase of BIC: binary search
// below the last loss point, gentle max-probing above it. The caps are
// deliberately small: on a clean long path BIC's effective growth is a few
// segments per RTT, which is what stretches the paper's Figure 9 ramp over
// seconds.
func (f *Flow) bicIncrement() float64 {
	const (
		binaryCapSegs = 4 // effective Smax during binary search
		probeCapSegs  = 3 // gentle growth while probing past wmax
	)
	if f.wmax > 0 && f.cwnd < f.wmax {
		inc := (f.wmax - f.cwnd) / 2
		return clamp(inc, float64(mss), binaryCapSegs*float64(mss))
	}
	inc := f.cwnd - f.wmax // doubles each RTT while probing
	return clamp(inc, float64(mss), probeCapSegs*float64(mss))
}

// burstLoss models an unpaced slow-start burst overflowing the bottleneck
// queue of a long-distance path: multiplicative back-off and exit to
// congestion avoidance.
func (f *Flow) burstLoss() {
	f.Stats.BurstLosses++
	f.wmax = f.cwnd
	f.cwnd *= 0.5
	f.ssthresh = f.cwnd
	f.slowStart = false
}

// maybeContentionLoss applies a probabilistic loss when the path's links
// are oversubscribed AND this flow actually pushed at its share (callers
// gate it on rate-limited rounds: a window-limited flow underuses its
// share and does not overflow queues). Real TCP is exposed to queue
// overflows once per RTT, so a round spanning several RTTs draws
// proportionally more risk. On long paths a fraction of losses escalates
// to retransmission timeouts — the incast collapse that hammers unpaced
// many-flow patterns like IS's alltoall.
func (f *Flow) maybeContentionLoss(roundTime time.Duration) {
	share := f.path.ShareRate()
	bott := f.path.Bottleneck()
	if share >= bott {
		return
	}
	over := bott/share - 1
	if over > 3 {
		over = 3
	}
	draws := float64(roundTime) / float64(f.rtt())
	if draws < 1 {
		draws = 1
	}
	p := contentionLossCoef * over * draws
	if f.cfg.Pacing {
		p *= pacingLossFactor
	}
	if p > 0.75 {
		p = 0.75
	}
	if f.k.Rand().Float64() >= p {
		return
	}
	const rtoShare = 0.3 // fraction of contention losses that become RTOs
	if f.isWAN() && f.k.Rand().Float64() < rtoShare {
		f.Stats.Timeouts++
		f.stallUntil = f.k.Now() + minRTO
		f.ssthresh = math.Max(f.cwnd/2, 2*float64(mss))
		f.cwnd = float64(initCwndSegs * mss)
		f.slowStart = true
		return
	}
	f.Stats.ContentionLoss++
	f.wmax = f.cwnd
	f.cwnd *= 0.7
	f.ssthresh = f.cwnd
}

// idleRestart resets the window after an idle period, per
// tcp_slow_start_after_idle, keeping ssthresh near the previous operating
// point so the ramp back is quick.
func (f *Flow) idleRestart() {
	f.Stats.IdleRestarts++
	f.ssthresh = math.Max(f.ssthresh, f.cwnd)
	f.cwnd = float64(initCwndSegs * mss)
	f.slowStart = true
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
