package mpi

// Protocol arenas: one free-list type recycles the per-message objects a
// sweep would otherwise heap-allocate once per message — Requests,
// arrived-but-unmatched inMsg envelopes, nonblocking sends in flight
// (sendJob), delivery records (delivery), rendezvous handshakes
// (handshake) and MPICH-G2's striped payloads (stripedSend). Each kind
// keeps its reset where it is used: a Request's done signal is rearmed
// on get, a handshake's CTS signal and a stripe's buffered signal are
// Reset on get, and records are zeroed before put. A World runs on a
// single kernel, which is one flow of control (see sim.Proc), so the
// lists need no locking. Together with the kernel's event slab,
// steady-state message traffic allocates nothing (pinned by
// TestMpiHotPathAllocFree and the other AllocFree tests).

// Delivery kinds: what runDelivery does when the bytes land.
const (
	delivEager    uint8 = iota // eager payload arrived: deliverEager(m)
	delivRTS                   // rendezvous RTS arrived: deliverRTS(m)
	delivCTS                   // clear-to-send arrived back: fire hs.cts
	delivRndvData              // rendezvous payload arrived: complete hs.req
)

// delivery is a pooled what-happens-when-the-bytes-land record, handed to
// tcpsim.Flow.Write/SendAsyncArg with runDelivery. src is the rank that
// wrote the bytes, dst the rank receiving them; big marks a payload that
// holds the fast-buffer collision slot until it lands (see slowPath).
type delivery struct {
	src  *Rank
	dst  *Rank
	m    *inMsg     // eager payload or RTS envelope (delivEager/delivRTS)
	hs   *handshake // the rendezvous (delivCTS/delivRndvData)
	big  bool
	kind uint8
}

// runDelivery dispatches a pooled delivery and recycles it. It is the
// single package-level callback behind every protocol-level flow write.
func runDelivery(a any) {
	d := a.(*delivery)
	w := d.src.w
	if d.big {
		d.src.bigOut[d.dst.id]--
	}
	switch d.kind {
	case delivEager:
		d.dst.deliverEager(d.m)
	case delivRTS:
		d.dst.deliverRTS(d.m)
	case delivCTS:
		d.hs.cts.Fire()
	default:
		// The payload landed: the handshake's last step.
		hs := d.hs
		hs.req.done.Fire()
		hs.req = nil
		w.shakes.put(hs)
	}
	*d = delivery{}
	w.delivs.put(d)
}

// freeList recycles one kind of pooled object. get pops the most recently
// put one, or makes one with fresh (new(T) when fresh is nil).
type freeList[T any] struct {
	free  []*T
	fresh func() *T
}

func (l *freeList[T]) get() *T {
	n := len(l.free)
	if n == 0 {
		if l.fresh != nil {
			return l.fresh()
		}
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

func (l *freeList[T]) put(x *T) { l.free = append(l.free, x) }

// getReq takes a Request, keeping its done Signal across recycles
// (rearmed here). Requests return to the list when Wait returns.
func (w *World) getReq() *Request {
	q := w.reqs.get()
	q.done.Reset()
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
