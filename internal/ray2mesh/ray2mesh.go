// Package ray2mesh models the paper's real application (§4.4): the
// seismic ray-tracing suite of Grunberg et al., run as one master and 32
// slaves on four Grid'5000 clusters (eight nodes each).
//
// The master hands out rays in 1000-ray chunks (69 kB messages); a slave
// computes a chunk, returns a request, and receives the next — faster
// slaves therefore compute more rays (Table 6), and the cluster hosting
// the master gets a small proximity advantage in the end-game when the
// last chunks are claimed. Once all rays are traced, every slave exchanges
// its submesh contributions with every other (~235 MB per node) and merges
// what it receives (Table 7's merge phase).
//
// The package is the application only: its parameters and its rank body.
// The testbed, the stack and the world it runs on come from exp.Run.
package ray2mesh

import (
	"time"

	"repro/internal/grid5000"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Config parameterises the application. Use Default as a starting point.
type Config struct {
	// Rays is the global ray count (paper: one million).
	Rays int
	// ChunkRays is the self-scheduling quantum (paper: 1000 rays, 69 kB).
	ChunkRays int
	// ChunkBytes is the wire size of one chunk message.
	ChunkBytes int
	// RayCost is the per-ray compute time on the reference CPU.
	RayCost time.Duration
	// MergeBytes is the submesh data each slave contributes (paper:
	// ~235 MB per node).
	MergeBytes int64
	// MergeRate is the per-node mesh-merging processing rate in bytes per
	// second of received data (the merge phase is CPU-bound in the paper:
	// ~165 s for ~235 MB).
	MergeRate float64
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{
		Rays:       1_000_000,
		ChunkRays:  1000,
		ChunkBytes: 69 << 10,
		RayCost:    6100 * time.Microsecond,
		MergeBytes: 235 << 20,
		MergeRate:  1.62e6,
	}
}

// Scaled returns the configuration shrunk by factor f (rays and merge
// volume), for fast tests. Any ray count terminates, including fewer
// rays than one chunk per slave: slaves the initial round cannot feed
// receive a done-marker immediately.
func (c Config) Scaled(f float64) Config {
	c.Rays = int(float64(c.Rays) * f)
	c.MergeBytes = int64(float64(c.MergeBytes) * f)
	return c
}

const (
	tagRequest = 1
	tagChunk   = 2
	tagMerge   = 3
	reqBytes   = 64
)

// Sites lists the four clusters in the paper's Table 6 column order.
var Sites = []string{grid5000.Nancy, grid5000.Rennes, grid5000.Sophia, grid5000.Toulouse}

// NodesPerSite is the testbed's per-cluster node count (Figure 8).
const NodesPerSite = 8

// App is one run of the application on a world whose rank 0 is the
// master and every other rank a slave (the merge phase needs at least
// two slaves). Body is its rank body; once the world has run, the
// accounting fields hold what Tables 6 and 7 are derived from.
type App struct {
	cfg Config
	// Rays[i] is the number of rays rank i traced (the master traces
	// none).
	Rays []int
	// CompEnd is the end of the compute phase: the latest time a slave
	// left the barrier between the two phases.
	CompEnd sim.Time
	// End is the end of the run: the latest time a slave finished
	// merging.
	End sim.Time
}

// New prepares one run of cfg on a world of np ranks.
func New(cfg Config, np int) *App {
	return &App{cfg: cfg, Rays: make([]int, np)}
}

// Body is the application's rank body: the master self-schedules the
// rays, the slaves trace them, and after a barrier the slaves exchange
// and merge their submeshes. Any non-negative ray count terminates (see
// master's initial-round accounting).
func (a *App) Body(r *mpi.Rank) {
	if r.Rank() == 0 {
		a.master(r)
	} else {
		a.slaveCompute(r)
	}
	// All processes synchronize before the merge phase starts.
	r.Barrier()
	if r.Rank() == 0 {
		return
	}
	a.CompEnd = max(a.CompEnd, r.Now())
	a.slaveMerge(r)
	a.End = max(a.End, r.Now())
}

func (a *App) master(r *mpi.Rank) {
	remaining := a.cfg.Rays
	send := func(slave int) bool {
		n := min(a.cfg.ChunkRays, remaining)
		remaining -= n
		if n > 0 {
			r.SendPayload(slave, tagChunk, a.cfg.ChunkBytes, n)
			return true
		}
		r.SendPayload(slave, tagChunk, 1, 0) // empty grant: done marker
		return false
	}
	// Initial round: one chunk per slave. A slave that the remaining
	// rays cannot feed gets its done-marker here and never enters the
	// request loop, so it must not be counted as active — ignoring
	// send's verdict in this round is what used to deadlock the master
	// whenever the ray count gave fewer chunks than slaves.
	active := 0
	for s := 1; s < r.Size(); s++ {
		if send(s) {
			active++
		}
	}
	// Self-scheduling loop: serve requests first come, first served.
	// Exactly one request is outstanding per active slave.
	for active > 0 {
		req := r.Recv(mpi.AnySource, tagRequest)
		if !send(req.Source) {
			active--
		}
	}
}

func (a *App) slaveCompute(r *mpi.Rank) {
	me := r.Rank()
	for {
		chunk := r.Recv(0, tagChunk)
		rays := chunk.Data.(int)
		if rays == 0 {
			return
		}
		r.Compute(time.Duration(rays) * a.cfg.RayCost)
		a.Rays[me] += rays
		r.Send(0, tagRequest, reqBytes)
	}
}

func (a *App) slaveMerge(r *mpi.Rank) {
	me := r.Rank()
	nSlaves := r.Size() - 1
	share := int(a.cfg.MergeBytes / int64(nSlaves-1))
	reqs := make([]*mpi.Request, 0, 2*(nSlaves-1))
	for s := 1; s <= nSlaves; s++ {
		if s != me {
			reqs = append(reqs, r.Irecv(s, tagMerge))
		}
	}
	for s := 1; s <= nSlaves; s++ {
		if s != me {
			reqs = append(reqs, r.Isend(s, tagMerge, share))
		}
	}
	r.WaitAll(reqs...)
	r.Compute(time.Duration(float64(a.cfg.MergeBytes) / a.cfg.MergeRate * float64(time.Second)))
}
