package sim

// Mutex is a mutual-exclusion lock for simulation processes (Lock) and
// event-context callbacks (LockArg). Both kinds of waiter share one FIFO
// and are woken in order, keeping lock handoff deterministic.
type Mutex struct {
	k       *Kernel
	locked  bool
	waiters []waiter
}

// NewMutex creates an unlocked mutex on this kernel.
func (k *Kernel) NewMutex() *Mutex { return &Mutex{k: k} }

// Lock blocks p until the mutex is acquired. p must be the calling process.
func (m *Mutex) Lock(p *Proc) {
	for !m.LockArg(wakeProc, p) {
		p.Park()
	}
}

// LockArg is Lock for code running in event context: it reports true
// when it acquired the mutex. Otherwise it queues fn(arg) at the tail
// and returns false; Unlock schedules fn(arg) in the (time, seq) slot a
// waiting process's wakeup would take, and fn must call LockArg again,
// since another locker may have taken the mutex first — exactly as
// Lock's loop does.
func (m *Mutex) LockArg(fn func(any), arg any) bool {
	if m.locked {
		m.waiters = append(m.waiters, waiter{fn, arg})
		return false
	}
	m.locked = true
	return true
}

// Unlock releases the mutex and wakes the oldest waiter, if any. It may be
// called from any process or from the kernel loop.
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("sim: unlock of unlocked Mutex")
	}
	m.locked = false
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		popFront(&m.waiters)
		m.k.ScheduleArg(m.k.now, w.fn, w.arg)
	}
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.locked }
