package mpi

import (
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// Nonblocking sends. Isend and the collectives' cisend run the wire
// protocol of sendProto as a chain of package-level steps on a pooled
// sendJob, so a nonblocking send spawns no process. Where sendProto's
// process would wait — a delay, the serial-rendezvous
// lock, a flow write, the CTS, the striped lanes — the step registers
// its continuation instead, and the continuation runs in exactly the
// (time, seq) slot of the wakeup it replaces: a delay schedules it at
// now+d as Sleep would, Mutex.LockArg and Signal.WaitArg queue it
// beside process waiters, and a blocked flow write continues from the
// refill that would have resumed the writer. A step that needs no wait
// runs inline in the same event, as the process did. The event stream
// is the one a process per send executed (locked by TestSendEventOrder
// and the root event-order goldens).

// sendJob is one nonblocking send in flight: its message and the
// protocol's state between steps.
type sendJob struct {
	r      *Rank
	m      *message
	req    *Request
	wan    bool
	flow   *tcpsim.Flow
	lock   *sim.Mutex // the serial-rendezvous lock, nil without one
	landed func(any)  // the payload's landing
	wr     tcpsim.Write
}

// isend starts the event chain of one message and returns its
// request. The first step runs as an event at the current instant, in
// the slot a send process's start event took.
func (r *Rank) isend(dst, tag int, size int64, ctx int, data any) *Request {
	req := r.w.getReq()
	j := r.w.jobs.get()
	j.r, j.m, j.req = r, r.newMessage(dst, tag, size, ctx, data), req
	r.w.K.ScheduleArg(r.w.K.Now(), isendStart, j)
	return req
}

// after schedules the job's next step d from now, where the process
// would have slept d.
func (j *sendJob) after(d sim.Time, step func(any)) {
	k := j.r.w.K
	k.ScheduleArg(k.Now()+d, step, j)
}

// isendStart books the message and pays the software overhead.
func isendStart(a any) {
	j := a.(*sendJob)
	j.wan = j.r.sendBegin(j.m)
	j.after(j.r.w.Prof.Overhead(j.wan), isendOverhead)
}

// isendOverhead pays Madeleine's slow-path stall when it applies.
func isendOverhead(a any) {
	j := a.(*sendJob)
	r := j.r
	j.flow = r.flowTo(j.m.to.id)
	if r.slowPath(j.m, j.wan) {
		j.after(r.w.Prof.SlowPathStall, isendProtocol)
		return
	}
	isendProtocol(j)
}

// isendProtocol sends an eager payload or opens the rendezvous.
func isendProtocol(a any) {
	j := a.(*sendJob)
	r, m := j.r, j.m
	if m.big {
		r.bigOut[m.to.id]++ // released when the payload lands
	}
	if m.eager {
		j.landed = eagerLanded
		isendPayload(j)
		return
	}
	j.lock, j.landed = r.rndvLock(m.to.id), payloadLanded
	isendLock(j)
}

// isendLock takes the serial-rendezvous lock, if any — it is also the
// lock's waiter callback — and writes the RTS.
func isendLock(a any) {
	j := a.(*sendJob)
	if j.lock != nil && !j.lock.LockArg(isendLock, j) {
		return
	}
	j.r.startRndv(j.m)
	if j.write(ControlBytes, rtsLanded, isendRTSWritten) {
		isendRTSWritten(j)
	}
}

// isendRTSWritten waits for the CTS, then sends the payload.
func isendRTSWritten(a any) {
	j := a.(*sendJob)
	if j.m.cts.WaitArg(isendPayload, j) {
		isendPayload(j)
	}
}

// isendPayload pays the fragment pipeline's delay when it applies.
func isendPayload(a any) {
	j := a.(*sendJob)
	if delay, ok := j.r.fragmentDelay(EnvelopeBytes + j.m.size); ok {
		j.after(delay, isendWrite)
		return
	}
	isendWrite(j)
}

// isendWrite writes the payload, striped or on the flow.
func isendWrite(a any) {
	j := a.(*sendJob)
	n := EnvelopeBytes + j.m.size
	if j.r.striped(j.wan, n) {
		if j.r.sendStriped(j.m, n, j.landed).WaitArg(isendDone, j) {
			isendDone(j)
		}
		return
	}
	if j.write(n, j.landed, isendDone) {
		isendDone(j)
	}
}

// write starts a flow write of n bytes of the job's message, whose
// landing runs landed, and reports whether it completed at once;
// otherwise the flow calls next later.
func (j *sendJob) write(n int64, landed func(any), next func(any)) bool {
	j.wr = tcpsim.Write{N: n, Fn: landed, Arg: j.m, Then: next, ThenArg: j}
	return j.flow.Write(&j.wr)
}

// isendDone completes the send as sendProto returns: it
// releases the serial-rendezvous lock, fires the request and recycles
// the job.
func isendDone(a any) {
	j := a.(*sendJob)
	if j.lock != nil {
		j.lock.Unlock()
	}
	j.req.done.Fire()
	w := j.r.w
	*j = sendJob{}
	w.jobs.put(j)
}
