package mpi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// ErrTimeout is returned by RunTimeout when some rank has not finished by
// the deadline — the simulated analogue of the paper's "application
// timeout" on MPICH-Madeleine BT/SP runs.
var ErrTimeout = errors.New("mpi: run timed out")

// ErrDeadlock is returned by Run when the simulation quiesced with ranks
// still blocked (an actual communication deadlock in the program).
var ErrDeadlock = errors.New("mpi: ranks deadlocked")

// World is an MPI job: a set of ranks pinned to hosts, sharing one
// implementation profile and one TCP stack configuration.
type World struct {
	K     *sim.Kernel
	Net   *netsim.Network
	TCP   tcpsim.Config
	Prof  Profile
	ranks []*Rank
	stats *Stats
	// partition is the site partition, built on first use (sites).
	partition *sites

	// Protocol arenas (see arena.go): free lists for the per-message
	// objects, shared by all ranks of the job.
	reqs    freeList[Request]
	msgs    freeList[message]
	jobs    freeList[sendJob]
	stripes freeList[stripedSend]
}

// NewWorld creates a world with rank i running on hosts[i]. Every
// connection it opens uses the TCP stack tcp.
func NewWorld(k *sim.Kernel, net *netsim.Network, tcp tcpsim.Config, prof Profile, hosts []*netsim.Host) *World {
	if len(hosts) == 0 {
		panic("mpi: world needs at least one host")
	}
	w := &World{K: k, Net: net, TCP: tcp, Prof: prof, stats: newStats()}
	w.ranks = make([]*Rank, len(hosts))
	for i, h := range hosts {
		w.ranks[i] = &Rank{
			w:         w,
			id:        i,
			host:      h,
			flows:     make(map[int]*tcpsim.Flow),
			rndvLocks: make(map[int]*sim.Mutex),
			bigOut:    make(map[int]int),
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Stats returns the world's communication census.
func (w *World) Stats() *Stats { return w.stats }

// RankAt returns rank i (for inspection in tests).
func (w *World) RankAt(i int) *Rank { return w.ranks[i] }

// FlowStats aggregates the transport counters of every flow the job opened.
// All fields are commutative sums (PeakCwnd a max), so the result does not
// depend on map iteration order — safe for deterministic metrics.
func (w *World) FlowStats() tcpsim.FlowStats {
	var agg tcpsim.FlowStats
	for _, r := range w.ranks {
		for _, f := range r.flows {
			agg.Add(f.Stats)
		}
	}
	return agg
}

// Run executes body concurrently on every rank (SPMD style) and returns
// the elapsed virtual time until the last rank finishes. It returns
// ErrDeadlock if the simulation quiesces with unfinished ranks.
func (w *World) Run(body func(r *Rank)) (time.Duration, error) {
	w.spawn(body)
	w.K.Run()
	return w.collect(0)
}

// RunTimeout is Run with a virtual-time deadline; past it, unfinished
// ranks make the job report ErrTimeout.
func (w *World) RunTimeout(body func(r *Rank), limit time.Duration) (time.Duration, error) {
	start := w.K.Now()
	w.spawn(body)
	w.K.RunUntil(start + limit)
	return w.collect(limit)
}

func (w *World) spawn(body func(r *Rank)) {
	start := w.K.Now()
	for _, r := range w.ranks {
		r := r
		r.start = start
		r.proc = w.K.Go(fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) {
			body(r)
			r.finish = p.Now()
		})
	}
}

func (w *World) collect(limit time.Duration) (time.Duration, error) {
	var latest time.Duration
	stuck := 0
	for _, r := range w.ranks {
		if !r.proc.Done() {
			stuck++
			continue
		}
		if d := r.finish - r.start; d > latest {
			latest = d
		}
	}
	if stuck > 0 {
		if limit > 0 {
			return limit, fmt.Errorf("%w: %d/%d ranks unfinished after %v", ErrTimeout, stuck, len(w.ranks), limit)
		}
		return latest, fmt.Errorf("%w: %d/%d ranks blocked", ErrDeadlock, stuck, len(w.ranks))
	}
	return latest, nil
}

// Rank is one MPI process. All its communication methods must be called
// from within the body function passed to Run (they block the rank's own
// simulation process).
type Rank struct {
	w      *World
	id     int
	host   *netsim.Host
	proc   *sim.Proc
	start  sim.Time
	finish sim.Time

	flows      map[int]*tcpsim.Flow
	rndvLocks  map[int]*sim.Mutex
	posted     []*Request
	unexpected []*message
	// bigOut counts in-flight oversized messages per destination, for the
	// fast-buffer collision model (see slowPath).
	bigOut  map[int]int
	collSeq int
	// wr is the record of the rank's blocking flow writes (see write).
	wr tcpsim.Write
}

// Rank returns this process's rank id.
func (r *Rank) Rank() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.w.ranks) }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Site returns the rank's site name.
func (r *Rank) Site() string { return r.host.Site }

// Compute blocks the rank for d of reference-machine CPU time, scaled by
// the host's relative speed (a 1.2× node finishes the same work in d/1.2).
func (r *Rank) Compute(d time.Duration) {
	r.proc.Sleep(time.Duration(float64(d) / r.host.CPUSpeed))
}

// Sleep blocks the rank for exactly d of virtual time.
func (r *Rank) Sleep(d time.Duration) { r.proc.Sleep(d) }

// flowTo returns (creating lazily) the outgoing TCP flow to rank dst.
func (r *Rank) flowTo(dst int) *tcpsim.Flow {
	if f, ok := r.flows[dst]; ok {
		return f
	}
	path := r.w.Net.Path(r.host, r.w.ranks[dst].host)
	f := tcpsim.NewFlow(r.w.K, path, r.w.TCP, r.w.Prof.Buffers)
	r.flows[dst] = f
	return f
}

// rndvLock returns the per-destination serialization lock when the
// profile sets SerialRendezvous, and nil otherwise.
func (r *Rank) rndvLock(dst int) *sim.Mutex {
	if !r.w.Prof.SerialRendezvous {
		return nil
	}
	if m, ok := r.rndvLocks[dst]; ok {
		return m
	}
	m := r.w.K.NewMutex()
	r.rndvLocks[dst] = m
	return m
}
