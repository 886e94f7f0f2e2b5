package mpi

import "repro/internal/sim"

// Protocol arenas: four free lists of one type recycle the per-message
// objects a sweep would otherwise heap-allocate once per message —
// Requests, messages (message), nonblocking sends in flight (sendJob)
// and MPICH-G2's striped payloads (stripedSend). A record keeps its
// signal across recycles — a Request's done signal, a message's CTS
// signal, a stripe's buffered signal: the code that uses the record
// makes the signal on its first use and Resets it on each later one,
// and a record is zeroed but for its signal before put. A World runs
// on a single kernel, which is one flow of control (see sim.Proc), so
// the lists need no locking. Together with the kernel's event slab,
// steady-state message traffic allocates nothing (pinned by
// TestMpiHotPathAllocFree and the other AllocFree tests).

// message is one MPI message, a pooled record that lives from the send
// call until the receiver is done with it. It holds the envelope, both
// endpoints and the fast-buffer flag (big, see slowPath); every write of
// the message carries it by pointer to a landing callback (eagerLanded,
// rtsLanded, ctsLanded, payloadLanded). A rendezvous also keeps in it
// the CTS signal the sender waits on, and the receive that matched the
// RTS, which the payload's landing completes.
//
// Ownership: the sender reads the record only until its last write is
// buffered, and only the receiver's side may recycle it after that: the
// receive that takes an eager message, or the rendezvous payload's
// landing.
type message struct {
	ctx   int
	tag   int
	size  int64
	data  any
	from  *Rank
	to    *Rank
	eager bool
	big   bool
	cts   *sim.Signal // made on the record's first rendezvous (startRndv)
	req   *Request    // the receive that matched the RTS
}

// newMessage takes a record for a message of size bytes from r to dst.
func (r *Rank) newMessage(dst, tag int, size int64, ctx int, data any) *message {
	m := r.w.msgs.get()
	m.ctx, m.tag, m.size, m.data, m.from, m.to = ctx, tag, size, data, r, r.w.ranks[dst]
	m.eager = !r.w.Prof.UsesRendezvous(int(size))
	return m
}

// recycle returns m to the pool, zeroing every field but its CTS signal.
func (m *message) recycle() {
	w := m.from.w
	*m = message{cts: m.cts}
	w.msgs.put(m)
}

func (m *message) status() Status {
	return Status{Source: m.from.id, Tag: m.tag, Size: m.size, Data: m.data}
}

// freeList recycles one kind of pooled object. get pops the most recently
// put one, or makes a zero one.
type freeList[T any] struct {
	free []*T
}

func (l *freeList[T]) get() *T {
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

func (l *freeList[T]) put(x *T) { l.free = append(l.free, x) }

// getReq takes a Request, keeping its done Signal across recycles (made
// on the record's first use, rearmed after that). Requests return to the
// list when Wait returns.
func (w *World) getReq() *Request {
	q := w.reqs.get()
	if q.done == nil {
		q.done = w.K.NewSignal()
	} else {
		q.done.Reset()
	}
	return q
}

// popAt removes element i of s preserving order, zeroing the vacated tail
// slot so the backing array never pins removed entries.
func popAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	var zero T
	n := len(s) - 1
	s[n] = zero
	return s[:n]
}
