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
	rank   *Rank
	isRecv bool
	ctx    int
	src    int // recv matching source (AnySource allowed)
	tag    int // recv matching tag (AnyTag allowed)
	done   *sim.Signal
	Status Status
}

// inMsg is an arrived-but-unmatched message: either a full eager payload
// or a rendezvous RTS.
type inMsg struct {
	ctx   int
	src   int
	tag   int
	size  int64
	eager bool
	reqID int64 // rendezvous handshake id (RTS only)
	data  any
}

func (m *inMsg) status() Status {
	return Status{Source: m.src, Tag: m.tag, Size: m.size, Data: m.data}
}

// Send transmits size payload bytes to rank dst with the given tag,
// blocking per MPI semantics: eager sends return once the data is buffered
// by TCP; rendezvous sends return once the receiver has accepted the
// transfer and the data is on the wire.
func (r *Rank) Send(dst, tag int, size int) {
	r.sendProto(r.proc, dst, tag, int64(size), ctxUser, true, nil)
}

// SendPayload is Send with an application value attached; the receiver
// finds it in Status.Data. Size still governs all timing.
func (r *Rank) SendPayload(dst, tag, size int, data any) {
	r.sendProto(r.proc, dst, tag, int64(size), ctxUser, true, data)
}

// Isend starts a nonblocking send and returns its request. The transfer
// protocol runs in a background process; Wait returns once the send is
// locally complete.
func (r *Rank) Isend(dst, tag int, size int) *Request {
	return r.IsendPayload(dst, tag, size, nil)
}

// IsendPayload is Isend with an application value attached.
func (r *Rank) IsendPayload(dst, tag, size int, data any) *Request {
	req := r.w.getReq(r)
	r.recordUserSend(dst, int64(size))
	j := r.w.jobs.get()
	j.r, j.dst, j.tag, j.ctx, j.size, j.data, j.req = r, dst, tag, ctxUser, int64(size), data, req
	r.w.K.GoJob("isend", runSendJob, j)
	return req
}

func (r *Rank) recordUserSend(dst int, size int64) {
	wan := !netsim.SameSite(r.host, r.w.ranks[dst].host)
	r.w.stats.recordP2P(size, wan)
}

// sendProto runs the wire protocol for one message from process p.
func (r *Rank) sendProto(p *sim.Proc, dst, tag int, size int64, ctx int, record bool, data any) {
	if record {
		r.recordUserSend(dst, size)
	}
	dstRank := r.w.ranks[dst]
	wan := !netsim.SameSite(r.host, dstRank.host)
	if ctx == ctxColl {
		r.w.stats.recordCollMsg(r.id, dst, size, wan)
	}
	prof := r.w.Prof
	p.Sleep(prof.Overhead(wan))
	flow := r.flowTo(dst)

	// MPICH-Madeleine's fast-buffer collision: its pinned channel buffer
	// is shared between the two directions of a pair, and a message
	// larger than SlowPathThreshold monopolizes it. When both directions
	// move such messages at once over a long-RTT link (BT/SP's
	// simultaneous face exchanges), the loser falls back to a polled slow
	// path and stalls. One-directional traffic (pingpong) and messages
	// that fit (CG's 147 kB) are unaffected.
	big := wan && prof.SlowPathThreshold > 0 && size > int64(prof.SlowPathThreshold)
	if big {
		if dstRank.bigOut[r.id] > 0 {
			p.Sleep(prof.SlowPathStall)
		}
		r.bigOut[dst]++ // released when the payload's delivery lands
	}

	if !prof.UsesRendezvous(int(size)) {
		m := r.w.msgs.get()
		m.ctx, m.src, m.tag, m.size, m.eager, m.data = ctx, r.id, tag, size, true, data
		d := r.w.delivs.get()
		d.src, d.dst, d.m, d.big, d.kind = r, dstRank, m, big, delivEager
		r.sendPayload(p, flow, dst, wan, EnvelopeBytes+size, d)
		return
	}

	// Rendezvous: RTS → (receiver matches) → CTS → payload.
	r.w.stats.Rendezvous++
	var lock *sim.Mutex
	if prof.SerialRendezvous {
		lock = r.rndvLock(dst)
		lock.Lock(p)
	}
	reqID := r.newReqID()
	cts := r.w.sigs.get()
	cts.Reset()
	r.pendingCTS[reqID] = cts
	m := r.w.msgs.get()
	m.ctx, m.src, m.tag, m.size, m.reqID, m.data = ctx, r.id, tag, size, reqID, data
	rts := r.w.delivs.get()
	rts.src, rts.dst, rts.m, rts.kind = r, dstRank, m, delivRTS
	flow.SendArg(p, ControlBytes, runDelivery, rts)
	cts.Wait(p)
	delete(r.pendingCTS, reqID)
	r.w.sigs.put(cts) // fired, so Reset may rearm it
	d := r.w.delivs.get()
	d.src, d.dst, d.reqID, d.big, d.kind = r, dstRank, reqID, big, delivRndvData
	r.sendPayload(p, flow, dst, wan, EnvelopeBytes+size, d)
	if lock != nil {
		lock.Unlock()
	}
}

// sendPayload writes wireBytes to the flow, firing the pooled delivery d
// when the last byte lands. When the profile models a fragment pipeline
// (OpenMPI's BTL), each fragment costs CPU time at the sender; the cost is
// applied as one aggregate delay so the TCP stream itself stays
// contiguous. When the profile stripes large WAN messages over parallel
// streams (MPICH-G2), the payload is split across extra flows and
// delivered when the last stripe lands.
func (r *Rank) sendPayload(p *sim.Proc, flow *tcpsim.Flow, dst int, wan bool, wireBytes int64, d *delivery) {
	if fs := int64(r.w.Prof.FragmentSize); fs > 0 && wireBytes > fs {
		frags := (wireBytes + fs - 1) / fs
		p.Sleep(time.Duration(frags) * r.w.Prof.FragmentOverhead)
	}
	streams := r.w.Prof.ParallelStreams
	if streams > 1 && wan && wireBytes >= int64(r.w.Prof.StreamMinSize) {
		r.sendStriped(p, dst, streams, wireBytes, d)
		return
	}
	flow.SendArg(p, wireBytes, runDelivery, d)
}

// sendStriped splits the payload across parallel TCP streams to dst. The
// call keeps eager semantics: it returns once every stripe is buffered,
// and d fires when the slowest stripe has fully arrived.
func (r *Rank) sendStriped(p *sim.Proc, dst, streams int, wireBytes int64, d *delivery) {
	stripe := wireBytes / int64(streams)
	remaining := streams
	lastLanded := func() {
		remaining--
		if remaining == 0 {
			runDelivery(d)
		}
	}
	buffered := r.w.K.NewSignal()
	pendingWrites := streams
	for lane := 0; lane < streams; lane++ {
		n := stripe
		if lane == streams-1 {
			n = wireBytes - stripe*int64(streams-1)
		}
		laneFlow := r.laneFlow(dst, lane)
		r.w.K.Go("stripe", func(cp *sim.Proc) {
			laneFlow.Send(cp, n, lastLanded)
			pendingWrites--
			if pendingWrites == 0 {
				buffered.Fire()
			}
		})
	}
	buffered.Wait(p)
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
	req := r.w.getReq(r)
	req.isRecv, req.ctx, req.src, req.tag = true, ctx, src, tag
	if m := r.takeUnexpected(src, tag, ctx); m != nil {
		if m.eager {
			// The message arrived before the receive was posted: it sat in
			// an MPI buffer and must now be copied out (Figure 4, arrow 2).
			req.Status = m.status()
			copyCost := time.Duration(float64(m.size) / copyRate * float64(time.Second))
			req.done.FireAfter(copyCost)
			*m = inMsg{}
			r.w.msgs.put(m)
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

// deliverEager handles a fully-arrived eager message.
func (r *Rank) deliverEager(m *inMsg) {
	if req := r.matchPosted(m); req != nil {
		req.Status = m.status()
		req.done.Fire()
		*m = inMsg{}
		r.w.msgs.put(m)
		return
	}
	r.w.stats.Unexpected++
	r.unexpected = append(r.unexpected, m)
}

// deliverRTS handles a rendezvous request-to-send.
func (r *Rank) deliverRTS(m *inMsg) {
	if req := r.matchPosted(m); req != nil {
		r.acceptRndv(req, m)
		return
	}
	r.unexpected = append(r.unexpected, m)
}

// acceptRndv matches a posted/poster receive with an RTS: registers the
// data completion, returns a CTS to the sender and recycles the envelope.
func (r *Rank) acceptRndv(req *Request, m *inMsg) {
	req.Status = m.status()
	r.rndvRecv[m.reqID] = req
	src := r.w.ranks[m.src]
	d := r.w.delivs.get()
	d.src, d.dst, d.reqID, d.kind = r, src, m.reqID, delivCTS
	r.flowTo(m.src).SendAsyncArg(ControlBytes, runDelivery, d)
	*m = inMsg{}
	r.w.msgs.put(m)
}

// fireCTS wakes the sender blocked on the rendezvous handshake.
func (r *Rank) fireCTS(reqID int64) {
	if s, ok := r.pendingCTS[reqID]; ok {
		s.Fire()
	}
}

// deliverRndvData completes the receive once the payload has arrived.
func (r *Rank) deliverRndvData(reqID int64) {
	req, ok := r.rndvRecv[reqID]
	if !ok {
		panic("mpi: rendezvous data for unknown request")
	}
	delete(r.rndvRecv, reqID)
	req.done.Fire()
}

// matchPosted removes and returns the oldest posted receive matching the
// message, or nil.
func (r *Rank) matchPosted(m *inMsg) *Request {
	for i, req := range r.posted {
		if req.ctx == m.ctx &&
			(req.src == AnySource || req.src == m.src) &&
			(req.tag == AnyTag || req.tag == m.tag) {
			r.posted = popAt(r.posted, i)
			return req
		}
	}
	return nil
}

// takeUnexpected removes and returns the oldest unexpected message
// matching (src, tag), or nil.
func (r *Rank) takeUnexpected(src, tag, ctx int) *inMsg {
	for i, m := range r.unexpected {
		if m.ctx == ctx &&
			(src == AnySource || src == m.src) &&
			(tag == AnyTag || tag == m.tag) {
			r.unexpected = popAt(r.unexpected, i)
			return m
		}
	}
	return nil
}
