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

	windowCap int     // min(send buffer, receive buffer) ceiling
	eff       float64 // goodput fraction of raw link rate

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
	downWait   bool     // parked on a dead path until NotifyUp fires onUpFn

	// Fault-injection state. linkGens holds the per-link registration
	// generations of the current path hold (reused scratch): releasing with
	// them makes fault teardown (link went down and evicted us) idempotent
	// while preserving the double-release panic for real accounting bugs.
	// onUpFn is the bound wakeup NotifyUp fires for a downWait flow.
	// lastArriveAt keeps delivery events monotone when injected loss or
	// jitter stretches one round's arrival, upholding delivQ's FIFO
	// invariant.
	linkGens     []uint32
	stallStart   sim.Time
	onUpFn       func()
	lastArriveAt sim.Time

	writeMu *sim.Mutex
	// writer is the process parked in write until the send buffer has
	// taken all of its message, and owed the bytes not yet buffered.
	// writeMu serializes writers, so there is at most one. Refills run as
	// flow events (refillFn) and buffer what fits; only the refill that
	// buffers the last byte resumes the writer, so a blocked write costs
	// one park and one resume however many window rounds it spans.
	writer *sim.Proc
	owed   int64

	notifies []notifyEntry
	due      []notifyEntry // deliver's reusable scratch for due callbacks

	// Bound callbacks, created once per flow: the transmit loop schedules
	// kernel events every round, and a fresh method-value or closure per
	// Schedule call is an allocation the event loop pays millions of
	// times per sweep. Round parameters travel in ackW/ackRoundTime/
	// ackRateLimited/ackInjLoss (one round outstanding, guarded by busy)
	// and delivQ (a FIFO of in-flight round end offsets; arrival times are
	// monotone, so events pop it in order).
	pumpFn         func()
	deliverFn      func()
	ackFn          func()
	refillFn       func()
	delivQ         []int64
	ackW           int64
	ackRoundTime   time.Duration
	ackRateLimited bool
	ackInjLoss     bool // the round lost a segment to injected path loss

	Stats FlowStats
}

// notifyEntry is one registered delivery callback: fn, or fn1(arg) for
// callers that avoid the closure by passing a package-level function plus
// a pooled argument (see SendArg).
type notifyEntry struct {
	off int64
	fn  func()
	fn1 func(any)
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
		eff:       cfg.Efficiency(),
		cwnd:      float64(cfg.InitCwndSegs * cfg.MSS),
		ssthresh:  math.MaxFloat64 / 4,
		slowStart: true,
		writeMu:   k.NewMutex(),
	}
	if f.windowCap < cfg.MSS {
		f.windowCap = cfg.MSS
	}
	f.pumpFn = f.pump
	f.deliverFn = f.deliverHead
	f.ackFn = f.roundAckedPending
	f.refillFn = f.refill
	f.onUpFn = f.pathUp
	// A conservative initial ssthresh only matters on long paths: cluster
	// BDPs are far below it, so local connections effectively slow-start
	// straight to their operating window. Paced senders do not suffer the
	// early ack-train losses the low initial threshold models, so they
	// keep slow-starting to the pipe capacity — GridMPI's fast ramp.
	if cfg.InitialSsthresh > 0 && f.isWAN() && !cfg.Pacing {
		f.ssthresh = float64(cfg.InitialSsthresh)
	}
	return f
}

// bdp returns the path's bandwidth-delay product in bytes.
func (f *Flow) bdp() float64 {
	return f.path.Bottleneck() * f.eff * f.rtt().Seconds()
}

// Path returns the network path the flow runs over.
func (f *Flow) Path() *netsim.Path { return f.path }

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
func (f *Flow) isWAN() bool { return f.path.RTT() >= f.cfg.WANThreshold }

// rtt is the effective round-trip time including endpoint software costs.
func (f *Flow) rtt() time.Duration { return f.path.RTT() + 2*f.cfg.HostOverhead }

// rto is the idle-restart threshold.
func (f *Flow) rto() time.Duration {
	r := 2 * f.rtt()
	if r < f.cfg.MinRTO {
		r = f.cfg.MinRTO
	}
	return r
}

// Send enqueues n bytes from process p, blocking until the send socket
// buffer has accepted all of them (the paper's eager-mode completion
// semantics: MPI_Send returns once the data is copied into the TCP buffer).
// If delivered is non-nil it runs when the destination has received the
// last of these n bytes. Concurrent senders are serialized FIFO.
func (f *Flow) Send(p *sim.Proc, n int64, delivered func()) {
	if n <= 0 {
		if delivered != nil {
			f.notifyAt(f.queued, delivered)
		}
		return
	}
	f.write(p, n)
	if delivered != nil {
		f.notifyAt(f.queued, delivered)
	}
	f.writeMu.Unlock()
}

// SendArg is Send with an argument-taking delivered callback: fn(arg) runs
// when the destination has received the last of the n bytes. A
// package-level fn plus a pooled arg lets per-message protocol layers
// (mpi's delivery arena) register completion without the closure Send's
// delivered parameter would allocate.
func (f *Flow) SendArg(p *sim.Proc, n int64, fn func(any), arg any) {
	if n <= 0 {
		f.notifyAtArg(f.queued, fn, arg)
		return
	}
	f.write(p, n)
	f.notifyAtArg(f.queued, fn, arg)
	f.writeMu.Unlock()
}

// write blocks p until the send socket buffer has accepted n bytes,
// holding the write lock. The caller registers its delivery callback and
// then releases writeMu, so the notify order matches the write order.
func (f *Flow) write(p *sim.Proc, n int64) {
	f.writeMu.Lock(p)
	f.owed = n
	if !f.fill() {
		f.writer = p
		p.Park() // until the refill that buffers the last byte
	}
}

// fill buffers as much of the owed bytes as the send buffer has room
// for and reports whether all of them are buffered. Like write(2), it
// fills whatever space is free and waits only when there is none:
// keeping the buffer topped up keeps the congestion window fully
// utilizable. The queue accounting stays inline: write runs fill on the
// writer's coroutine stack, and one more frame there pushes a fresh
// coroutine's first write past its initial stack, costing a stack copy.
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

// refill is the flow event roundAcked schedules for a parked writer. It
// re-checks the free space when it runs, because a SendAsync (a
// rendezvous CTS) may have filled it since the ack, and it resumes the
// writer inline once the last owed byte is buffered.
func (f *Flow) refill() {
	if f.fill() {
		p := f.writer
		f.writer = nil
		f.k.Resume(p)
	}
}

// SendAsync enqueues n bytes without blocking for buffer space; it is meant
// for small control messages (rendezvous RTS/CTS) issued from event
// context. delivered, if non-nil, runs when the bytes reach the receiver.
func (f *Flow) SendAsync(n int64, delivered func()) {
	if n <= 0 {
		n = 1
	}
	f.queued += n
	f.Stats.BytesQueued += n
	if delivered != nil {
		f.notifyAt(f.queued, delivered)
	}
	f.pump()
}

// SendAsyncArg is SendAsync with an argument-taking delivered callback.
func (f *Flow) SendAsyncArg(n int64, fn func(any), arg any) {
	if n <= 0 {
		n = 1
	}
	f.queued += n
	f.Stats.BytesQueued += n
	f.notifyAtArg(f.queued, fn, arg)
	f.pump()
}

// sndbufFree returns the free space in the send socket buffer.
func (f *Flow) sndbufFree() int64 {
	return int64(f.windowCap) - (f.queued - f.ackedOff)
}

// notifyAt registers fn to run once deliveredOff ≥ off.
func (f *Flow) notifyAt(off int64, fn func()) {
	if off <= f.deliveredOff {
		f.k.Schedule(f.k.Now(), fn)
		return
	}
	// Insert keeping ascending offset order; appends dominate because
	// stream offsets grow monotonically.
	i := len(f.notifies)
	for i > 0 && f.notifies[i-1].off > off {
		i--
	}
	f.notifies = append(f.notifies, notifyEntry{})
	copy(f.notifies[i+1:], f.notifies[i:])
	f.notifies[i] = notifyEntry{off: off, fn: fn}
}

// notifyAtArg registers fn(arg) to run once deliveredOff ≥ off.
func (f *Flow) notifyAtArg(off int64, fn func(any), arg any) {
	if off <= f.deliveredOff {
		f.k.Schedule(f.k.Now(), func() { fn(arg) })
		return
	}
	i := len(f.notifies)
	for i > 0 && f.notifies[i-1].off > off {
		i--
	}
	f.notifies = append(f.notifies, notifyEntry{})
	copy(f.notifies[i+1:], f.notifies[i:])
	f.notifies[i] = notifyEntry{off: off, fn1: fn, arg: arg}
}

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
		f.k.Schedule(f.stallUntil, f.pumpFn)
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
	if w < int64(f.cfg.MSS) && pending >= int64(f.cfg.MSS) {
		w = int64(f.cfg.MSS)
	}
	rate := f.path.ShareRate() * f.eff
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
	f.k.Schedule(arriveAt, f.deliverFn)
	f.ackW, f.ackRoundTime, f.ackRateLimited, f.ackInjLoss = w, roundTime, rateLimited, injLoss
	f.k.After(roundTime, f.ackFn)
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
	f.path.NotifyUp(f.onUpFn)
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

// deliverHead completes the oldest in-flight round's arrival. Rounds
// deliver in schedule order (arrival times never decrease: round n+1
// starts no earlier than round n's serialization ends), so a FIFO of end
// offsets matches events to rounds without a per-round closure.
func (f *Flow) deliverHead() {
	endOff := f.delivQ[0]
	n := copy(f.delivQ, f.delivQ[1:])
	f.delivQ = f.delivQ[:n]
	f.deliver(endOff)
}

// roundAckedPending runs the pending round-completion with the parameters
// pump recorded; busy guarantees exactly one round is outstanding.
func (f *Flow) roundAckedPending() {
	f.roundAcked(f.ackW, f.ackRoundTime, f.ackRateLimited)
}

// window is the usable window this round.
func (f *Flow) window() float64 {
	w := f.cwnd
	if c := float64(f.windowCap); w > c {
		w = c
	}
	if m := float64(f.cfg.MSS); w < m {
		w = m
	}
	return w
}

// deliver advances the receive offset and fires due callbacks in order.
func (f *Flow) deliver(endOff int64) {
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
		if e := &f.due[i]; e.fn1 != nil {
			e.fn1(e.arg)
		} else {
			e.fn()
		}
	}
	clear(f.due) // release the callback refs until the next round
	f.due = f.due[:0]
}

// roundAcked completes a window round: frees buffer space, grows or shrinks
// the congestion window, refills a blocked writer's bytes, and continues
// transmitting.
func (f *Flow) roundAcked(w int64, roundTime time.Duration, rateLimited bool) {
	f.ackedOff += w
	f.lastActive = f.k.Now()
	f.updateCwnd(w, roundTime, rateLimited)
	f.busy = false
	if f.writer != nil && f.sndbufFree() > 0 {
		// Refill first, then pump: the refill event is scheduled before
		// the pump event, so the next round sends a full window instead
		// of the leftover tail.
		f.k.Schedule(f.k.Now(), f.refillFn)
		f.k.Schedule(f.k.Now(), f.pumpFn)
		return
	}
	f.pump()
}

// updateCwnd applies slow start / congestion avoidance plus the two loss
// models (slow-start burst overshoot; contention on shared links).
func (f *Flow) updateCwnd(w int64, roundTime time.Duration, rateLimited bool) {
	mss := float64(f.cfg.MSS)
	cap64 := float64(f.windowCap)
	if f.ackInjLoss {
		// The round lost a segment to injected path loss and recovered by
		// fast retransmit: multiplicative decrease, no growth this round.
		f.ackInjLoss = false
		f.wmax = f.cwnd
		f.cwnd *= 0.5
		f.ssthresh = f.cwnd
		f.slowStart = false
		if f.cwnd < mss {
			f.cwnd = mss
		}
		return
	}
	if f.slowStart {
		f.cwnd += float64(w)
		queue := float64(f.cfg.BurstQueue)
		if f.cfg.Pacing {
			queue *= f.cfg.PacingBurstFactor
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
		var inc float64
		if f.cfg.Congestion == "reno" {
			inc = mss
		} else {
			inc = f.bicIncrement(mss)
		}
		if f.cfg.Pacing && f.cfg.PacingGrowthFactor > 1 {
			inc *= f.cfg.PacingGrowthFactor
		}
		f.cwnd += inc * frac
		if rateLimited {
			f.maybeContentionLoss(roundTime)
		}
	}
	if f.cwnd > cap64 {
		f.cwnd = cap64
		f.slowStart = false
	}
	if f.cwnd < mss {
		f.cwnd = mss
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
func (f *Flow) bicIncrement(mss float64) float64 {
	const (
		binaryCapSegs = 4 // effective Smax during binary search
		probeCapSegs  = 3 // gentle growth while probing past wmax
	)
	if f.wmax > 0 && f.cwnd < f.wmax {
		inc := (f.wmax - f.cwnd) / 2
		return clamp(inc, mss, binaryCapSegs*mss)
	}
	inc := f.cwnd - f.wmax // doubles each RTT while probing
	return clamp(inc, mss, probeCapSegs*mss)
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
	p := f.cfg.ContentionLossCoef * over * draws
	if f.cfg.Pacing {
		p *= f.cfg.PacingLossFactor
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
		f.stallUntil = f.k.Now() + f.cfg.MinRTO
		f.ssthresh = math.Max(f.cwnd/2, 2*float64(f.cfg.MSS))
		f.cwnd = float64(f.cfg.InitCwndSegs * f.cfg.MSS)
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
	f.cwnd = float64(f.cfg.InitCwndSegs * f.cfg.MSS)
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
