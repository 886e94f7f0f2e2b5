package sim

// Mutex is a mutual-exclusion lock for simulation processes. Waiters are
// queued and woken in FIFO order, keeping lock handoff deterministic.
type Mutex struct {
	k       *Kernel
	locked  bool
	waiters []*Proc
}

// NewMutex creates an unlocked mutex on this kernel.
func (k *Kernel) NewMutex() *Mutex { return &Mutex{k: k} }

// Lock blocks p until the mutex is acquired. p must be the calling process.
func (m *Mutex) Lock(p *Proc) {
	for m.locked {
		m.waiters = append(m.waiters, p)
		p.Park()
	}
	m.locked = true
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
		m.k.scheduleProc(m.k.now, w)
	}
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.locked }
