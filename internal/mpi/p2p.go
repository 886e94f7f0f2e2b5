package mpi

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// Wildcards for Recv/Irecv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Message contexts keep user and collective traffic in separate matching
// spaces, as real MPI implementations do with communicator contexts.
const (
	ctxUser = 0
	ctxColl = 1
)

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Size   int64
	// Data is the payload value attached by SendPayload/IsendPayload, if
	// any. The simulation prices communication by Size; Data rides along
	// for application-level bookkeeping (work descriptors, results).
	Data any
}

// Request is a nonblocking operation handle.
type Request struct {
	ctx    int
	src    int // recv matching source (AnySource allowed)
	tag    int // recv matching tag (AnyTag allowed)
	done   *sim.Signal
	Status Status
}

// Send transmits size payload bytes to rank dst with the given tag,
// blocking per MPI semantics: eager sends return once the data is buffered
// by TCP; rendezvous sends return once the receiver has accepted the
// transfer and the data is on the wire.
func (r *Rank) Send(dst, tag int, size int) {
	r.sendProto(dst, tag, int64(size), ctxUser, nil)
}

// SendPayload is Send with an application value attached; the receiver
// finds it in Status.Data. Size still governs all timing.
func (r *Rank) SendPayload(dst, tag, size int, data any) {
	r.sendProto(dst, tag, int64(size), ctxUser, data)
}

// Isend starts a nonblocking send and returns its request. The transfer
// protocol runs as a chain of kernel events, no process of its own (see
// isend.go); Wait returns once the send is locally complete.
func (r *Rank) Isend(dst, tag int, size int) *Request {
	return r.IsendPayload(dst, tag, size, nil)
}

// IsendPayload is Isend with an application value attached.
func (r *Rank) IsendPayload(dst, tag, size int, data any) *Request {
	return r.isend(dst, tag, int64(size), ctxUser, data)
}

// sendProto runs the wire protocol for one message on the rank's
// process, which blocks at each of its waits. Isend's event chain
// (isend.go) runs the same protocol, step by step, through the same
// helpers.
func (r *Rank) sendProto(dst, tag int, size int64, ctx int, data any) {
	p := r.proc
	m := r.newMessage(dst, tag, size, ctx, data)
	wan := r.sendBegin(m)
	p.Sleep(r.w.Prof.Overhead(wan))
	flow := r.flowTo(dst)
	if r.slowPath(m, wan) {
		p.Sleep(r.w.Prof.SlowPathStall)
	}
	if m.big {
		r.bigOut[dst]++ // released when the payload lands
	}
	if m.eager {
		r.sendPayload(flow, wan, m, eagerLanded)
		return
	}

	// Rendezvous: RTS → (receiver matches) → CTS → payload.
	lock := r.rndvLock(dst)
	if lock != nil {
		lock.Lock(p)
	}
	r.startRndv(m)
	r.write(flow, ControlBytes, m, rtsLanded)
	m.cts.Wait(p)
	r.sendPayload(flow, wan, m, payloadLanded)
	if lock != nil {
		lock.Unlock()
	}
}

// sendPayload writes m's payload and its envelope to the flow, blocking
// the rank until they are buffered; landed(m) runs when the last byte
// lands.
func (r *Rank) sendPayload(flow *tcpsim.Flow, wan bool, m *message, landed func(any)) {
	n := EnvelopeBytes + m.size
	if delay, ok := r.fragmentDelay(n); ok {
		r.proc.Sleep(delay)
	}
	if r.striped(wan, n) {
		r.sendStriped(m, n, landed).Wait(r.proc)
		return
	}
	r.write(flow, n, m, landed)
}

// write writes n bytes of m to flow on the rank's write record, parking
// the rank until the send buffer has taken them all; landed(m) runs when
// the last byte lands. A rank blocks in at most one write at a time, so
// one record serves all of them.
func (r *Rank) write(flow *tcpsim.Flow, n int64, m *message, landed func(any)) {
	r.wr = tcpsim.Write{N: n, Fn: landed, Arg: m, Then: resumeRank, ThenArg: r}
	if !flow.Write(&r.wr) {
		r.proc.Park() // until resumeRank
	}
}

// resumeRank is the continuation of a rank's blocked write: it runs the
// rank inline, in the lock-handoff or refill event that completed the
// write.
func resumeRank(a any) {
	r := a.(*Rank)
	r.w.K.Resume(r.proc)
}

// --- the protocol's rules, shared by sendProto and Isend's event chain ---

// sendBegin books m in the census and reports whether it crosses sites.
func (r *Rank) sendBegin(m *message) (wan bool) {
	wan = !netsim.SameSite(r.host, m.to.host)
	if m.ctx == ctxColl {
		r.w.stats.recordCollMsg(r.id, m.to.id, m.size, wan)
	} else {
		r.w.stats.recordP2P(m.size, wan)
	}
	return wan
}

// slowPath is MPICH-Madeleine's fast-buffer collision: its pinned
// channel buffer is shared between the two directions of a pair, and a
// message larger than SlowPathThreshold monopolizes it (m.big: the
// message holds the slot until its payload lands). When both directions
// move such messages at once over a long-RTT link (BT/SP's simultaneous
// face exchanges), the loser falls back to a polled slow path and
// stalls SlowPathStall first (stall). One-directional traffic
// (pingpong) and messages that fit (CG's 147 kB) are unaffected.
func (r *Rank) slowPath(m *message, wan bool) (stall bool) {
	prof := r.w.Prof
	m.big = wan && prof.SlowPathThreshold > 0 && m.size > int64(prof.SlowPathThreshold)
	return m.big && m.to.bigOut[r.id] > 0
}

// startRndv opens m's rendezvous: the sender writes the RTS next and
// waits on m.cts.
func (r *Rank) startRndv(m *message) {
	r.w.stats.Rendezvous++
	if m.cts == nil {
		m.cts = r.w.K.NewSignal()
	} else {
		m.cts.Reset()
	}
}

// fragmentDelay is the sender CPU time of a fragment pipeline (OpenMPI's
// BTL): each fragment of n wire bytes costs FragmentOverhead, applied as
// one aggregate delay so the TCP stream itself stays contiguous. ok is
// false when the profile has no pipeline or n fits in one fragment.
func (r *Rank) fragmentDelay(n int64) (d time.Duration, ok bool) {
	fs := int64(r.w.Prof.FragmentSize)
	if fs <= 0 || n <= fs {
		return 0, false
	}
	return time.Duration((n+fs-1)/fs) * r.w.Prof.FragmentOverhead, true
}

// striped reports whether a payload of n wire bytes is split over
// parallel streams (MPICH-G2's large WAN messages).
func (r *Rank) striped(wan bool, n int64) bool {
	return r.w.Prof.ParallelStreams > 1 && wan && n >= int64(r.w.Prof.StreamMinSize)
}

// stripedSend is one payload split across parallel TCP streams, a pooled
// countdown record: each lane is a callback write, buffered fires once
// every lane's bytes are buffered, and landed(m) runs when the slowest
// lane has fully arrived.
type stripedSend struct {
	m        *message
	landed   func(any)
	buffered *sim.Signal
	writing  int // lanes not yet buffered
	landing  int // lanes not yet arrived
	lanes    []stripeLane
}

// stripeLane is one lane's write on its flow.
type stripeLane struct {
	flow *tcpsim.Flow
	wr   tcpsim.Write
}

// sendStriped splits m's payload of n wire bytes across the profile's
// parallel streams, each lane's write starting in an event of its own,
// in lane order. It returns the signal that fires once every stripe is
// buffered: the sender keeps eager semantics by waiting on it.
func (r *Rank) sendStriped(m *message, n int64, landed func(any)) *sim.Signal {
	streams := r.w.Prof.ParallelStreams
	s := r.w.stripes.get()
	if s.buffered == nil {
		s.buffered, s.lanes = r.w.K.NewSignal(), make([]stripeLane, streams)
	}
	s.buffered.Reset()
	s.m, s.landed, s.writing, s.landing = m, landed, streams, streams
	stripe := n / int64(streams)
	for lane := range s.lanes {
		l := &s.lanes[lane]
		l.flow = r.laneFlow(m.to.id, lane)
		l.wr = tcpsim.Write{N: stripe, Fn: laneLanded, Arg: s, Then: laneBuffered, ThenArg: s}
		if lane == streams-1 {
			l.wr.N = n - stripe*int64(streams-1)
		}
		r.w.K.ScheduleArg(r.w.K.Now(), writeLane, l)
	}
	return s.buffered
}

// writeLane is the event that starts one lane's write.
func writeLane(a any) {
	l := a.(*stripeLane)
	if l.flow.Write(&l.wr) {
		laneBuffered(l.wr.ThenArg)
	}
}

// laneBuffered counts one lane whose bytes are buffered; the last fires
// the record's buffered signal.
func laneBuffered(a any) {
	s := a.(*stripedSend)
	s.writing--
	if s.writing == 0 {
		s.buffered.Fire()
	}
}

// laneLanded counts one lane whose bytes arrived; the last runs the
// payload's landing and recycles the record. Every lane is buffered by
// then, and the sender's wakeup ran: it was scheduled when the last lane
// was buffered, before that lane's bytes could land.
func laneLanded(a any) {
	s := a.(*stripedSend)
	s.landing--
	if s.landing == 0 {
		w := s.m.from.w
		s.landed(s.m)
		s.m, s.landed = nil, nil
		w.stripes.put(s)
	}
}

// laneFlow returns the lane-th parallel flow to dst (lane 0 is the main
// flow used for control traffic).
func (r *Rank) laneFlow(dst, lane int) *tcpsim.Flow {
	if lane == 0 {
		return r.flowTo(dst)
	}
	key := dst + lane<<20
	if f, ok := r.flows[key]; ok {
		return f
	}
	path := r.w.Net.Path(r.host, r.w.ranks[dst].host)
	f := tcpsim.NewFlow(r.w.K, path, r.w.TCP, r.w.Prof.Buffers)
	r.flows[key] = f
	return f
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// status. src may be AnySource and tag AnyTag.
func (r *Rank) Recv(src, tag int) Status {
	return r.Wait(r.Irecv(src, tag))
}

// Irecv posts a nonblocking receive for (src, tag).
func (r *Rank) Irecv(src, tag int) *Request {
	return r.irecv(src, tag, ctxUser)
}

func (r *Rank) irecv(src, tag, ctx int) *Request {
	req := r.w.getReq()
	req.ctx, req.src, req.tag = ctx, src, tag
	if m := r.takeUnexpected(src, tag, ctx); m != nil {
		if m.eager {
			// The message arrived before the receive was posted: it sat in
			// an MPI buffer and must now be copied out (Figure 4, arrow 2).
			req.Status = m.status()
			copyCost := time.Duration(float64(m.size) / copyRate * float64(time.Second))
			req.done.FireAfter(copyCost)
			m.recycle()
		} else {
			r.acceptRndv(req, m)
		}
		return req
	}
	r.posted = append(r.posted, req)
	return req
}

// Wait blocks until the request completes and returns its status. The
// request is recycled when Wait returns: wait on a request exactly once
// and do not touch it afterwards.
func (r *Rank) Wait(req *Request) Status {
	req.done.Wait(r.proc)
	st := req.Status
	*req = Request{done: req.done} // drop the payload ref; don't pin user data
	r.w.reqs.put(req)
	return st
}

// WaitAll waits for every request.
func (r *Rank) WaitAll(reqs ...*Request) {
	for _, q := range reqs {
		r.Wait(q)
	}
}

// --- receiver-side engine (runs in kernel event context) ---

// The landing callbacks: each wire step of a message runs one when its
// last byte reaches the other end, with the message as its argument.

// eagerLanded: an eager payload arrived; it frees the fast-buffer slot.
func eagerLanded(a any) {
	m := a.(*message)
	if m.big {
		m.from.bigOut[m.to.id]--
	}
	m.to.deliverEager(m)
}

// rtsLanded: a rendezvous request-to-send arrived.
func rtsLanded(a any) {
	m := a.(*message)
	m.to.deliverRTS(m)
}

// ctsLanded: the clear-to-send arrived back at the sender.
func ctsLanded(a any) { a.(*message).cts.Fire() }

// payloadLanded: a rendezvous payload arrived, the message's last step;
// it frees the fast-buffer slot, completes the matched receive and
// recycles the message.
func payloadLanded(a any) {
	m := a.(*message)
	if m.big {
		m.from.bigOut[m.to.id]--
	}
	m.req.done.Fire()
	m.recycle()
}

// deliverEager handles a fully-arrived eager message.
func (r *Rank) deliverEager(m *message) {
	if req := r.matchPosted(m); req != nil {
		req.Status = m.status()
		req.done.Fire()
		m.recycle()
		return
	}
	r.w.stats.Unexpected++
	r.unexpected = append(r.unexpected, m)
}

// deliverRTS handles a rendezvous request-to-send.
func (r *Rank) deliverRTS(m *message) {
	if req := r.matchPosted(m); req != nil {
		r.acceptRndv(req, m)
		return
	}
	r.unexpected = append(r.unexpected, m)
}

// acceptRndv matches a posted or posting receive with an RTS: it stores
// the receive in the message, for the payload's landing to complete,
// and returns a CTS to the sender.
func (r *Rank) acceptRndv(req *Request, m *message) {
	req.Status = m.status()
	m.req = req
	r.flowTo(m.from.id).SendAsyncArg(ControlBytes, ctsLanded, m)
}

// matchPosted removes and returns the oldest posted receive matching the
// message, or nil.
func (r *Rank) matchPosted(m *message) *Request {
	for i, req := range r.posted {
		if req.ctx == m.ctx &&
			(req.src == AnySource || req.src == m.from.id) &&
			(req.tag == AnyTag || req.tag == m.tag) {
			r.posted = popAt(r.posted, i)
			return req
		}
	}
	return nil
}

// takeUnexpected removes and returns the oldest unexpected message
// matching (src, tag), or nil.
func (r *Rank) takeUnexpected(src, tag, ctx int) *message {
	for i, m := range r.unexpected {
		if m.ctx == ctx &&
			(src == AnySource || src == m.from.id) &&
			(tag == AnyTag || tag == m.tag) {
			r.unexpected = popAt(r.unexpected, i)
			return m
		}
	}
	return nil
}
