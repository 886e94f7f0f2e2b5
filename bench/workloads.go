package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
	"repro/internal/npb"
	"repro/internal/ray2mesh"
)

// clients is the fixed load: two closed-loop clients, each starting its
// next cell only when the previous one returns (RunAll's pool shape on a
// 2-core box). The fleet's two clients are two sweepd workers.
const clients = 2

// Random streams drawn from the seed. Round shuffles use the round
// number with the top bit set, so they never collide with the others.
const (
	streamGridSizes  = 1
	streamFleetSizes = 2
	streamShuffle    = 1 << 63
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// cells generates the workload's experiments from the seed, in the
	// canonical order results are digested in.
	cells func(seed uint64) []exp.Experiment
	// prepare does the workload's one-off set-up work and installs the
	// fixture's round function.
	prepare func(s *fixture, tmp string) error
	// period is one round's wall time, collection and per-round set-up
	// included, as measured on the reference box (2-core Xeon,
	// GOMAXPROCS 2). It turns -seconds into a fixed round count, so every
	// commit runs the same rounds: a faster one finishes sooner.
	period time.Duration
}

// workloads run by default: the ones BENCHMARK.json lists.
var workloads = []*workload{
	{name: "paper-pingpong", cells: paperPingpongCells, prepare: prepareCompute, period: 120 * time.Millisecond},
	{name: "nas-ray", cells: nasRayCells, prepare: prepareCompute, period: 490 * time.Millisecond},
	{name: "grid-collectives", cells: gridCollectivesCells, prepare: prepareCompute, period: 145 * time.Millisecond},
	{name: "cache-replay", cells: cacheReplayCells, prepare: prepareReplay, period: 7500 * time.Microsecond},
}

// fleet runs only when named: its timed path creates and fsyncs files,
// so its timings follow the disk more than the code (see README.md).
var fleet = &workload{name: "fleet", cells: fleetCells, prepare: prepareFleet, period: 190 * time.Millisecond}

// paperPingpongCells is cmd/sweep's default matrix: 5 implementations ×
// 3 tunings, 1 kB–64 MB pingpongs across Rennes–Nancy.
func paperPingpongCells(uint64) []exp.Experiment { return exp.PaperMatrix(50).Experiments() }

// nasRayCells are the application skeletons of Figures 10–13 and
// Tables 6–7: every NAS kernel under the four MPI implementations on
// 8+8 nodes, plus ray2mesh from each of its four master sites.
func nasRayCells(uint64) []exp.Experiment {
	cells := exp.NPBMatrix(exp.Grid(8), 0.1, npb.Names).Experiments()
	for _, master := range ray2mesh.Sites {
		cells = append(cells, exp.Experiment{
			Impl:     mpiimpl.GridMPI,
			Tuning:   exp.Tuning{TCP: true},
			Topology: exp.Ray2MeshTopology(),
			Workload: exp.Ray2MeshWorkload(master, 0.25),
		})
	}
	return cells
}

var (
	collectivePatterns = []string{"bcast", "reduce", "allreduce", "gather", "scatter", "allgather", "alltoall", "barrier"}
	threeSites         = exp.Asym(exp.Site(grid5000.Rennes, 8), exp.Site(grid5000.Nancy, 4), exp.Site(grid5000.Sophia, 4))
)

// gridCollectivesCells crosses the eight collectives at two sizes with
// three implementations, flat and multilevel tuning, on a 3-site and a
// 2-site layout: many short 16-rank cells. Each pattern draws one size
// within 1/32 above 4 KiB and one within 1/32 above 64 KiB (the
// multilevel crossover): the narrow bands keep a round's work the same
// whatever the seed.
func gridCollectivesCells(seed uint64) []exp.Experiment {
	rng := rand.New(rand.NewPCG(seed, streamGridSizes))
	var wls []exp.Workload
	for _, p := range collectivePatterns {
		for _, base := range []int{4 << 10, 64 << 10} {
			wls = append(wls, exp.PatternWorkload(p, base+rng.IntN(base/32), 10))
		}
	}
	return exp.Sweep{
		Impls:      []string{mpiimpl.MPICH2, mpiimpl.GridMPI, mpiimpl.OpenMPI},
		Tunings:    []exp.Tuning{{TCP: true, MPI: true}, exp.MultilevelTuning},
		Topologies: []exp.Topology{threeSites, exp.Grid(8)},
		Workloads:  wls,
	}.Experiments()
}

// cacheReplayCells is the union of the three simulation workloads.
func cacheReplayCells(seed uint64) []exp.Experiment {
	var cells []exp.Experiment
	seen := make(map[string]bool)
	for _, gen := range []func(uint64) []exp.Experiment{paperPingpongCells, nasRayCells, gridCollectivesCells} {
		for _, e := range gen(seed) {
			if fp := e.Fingerprint(); !seen[fp] {
				seen[fp] = true
				cells = append(cells, e)
			}
		}
	}
	return cells
}

// fleetCells are 256 distinct tiny pingpongs at seed-drawn sizes in
// 1–64 KiB, so simulation is a small share of a fleet round.
func fleetCells(seed uint64) []exp.Experiment {
	rng := rand.New(rand.NewPCG(seed, streamFleetSizes))
	seen := make(map[int]bool)
	var cells []exp.Experiment
	for len(cells) < 256 {
		n := 1<<10 + rng.IntN(63<<10+1)
		if seen[n] {
			continue
		}
		seen[n] = true
		cells = append(cells, exp.Experiment{
			Impl:     mpiimpl.MPICH2,
			Tuning:   exp.Tuning{TCP: true, MPI: true},
			Topology: exp.Grid(1),
			Workload: exp.PingPongWorkload([]int{n}, 2),
		})
	}
	return cells
}

func lookup(name string) *workload {
	for _, w := range append(workloads, fleet) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rounds is the fixed round count for a run of the given length with n
// cells per round: the reference box's rounds in that time, and never
// fewer than leave 1000 cell latencies, so cell_ms_p99 has ten samples
// beyond it.
func (w *workload) rounds(seconds, n int) int {
	byTime := int((time.Duration(seconds)*time.Second + w.period - 1) / w.period)
	return max(byTime, (1000+n-1)/n)
}

// fixture is one set-up of a workload: its cells, the digest every
// round must reproduce, and the round itself.
type fixture struct {
	seed  uint64
	cells []exp.Experiment
	fps   []string
	// ref holds the reference results in canonical order and want their
	// digest: the warm-up round's, or what prepare computed.
	ref  []exp.Result
	want string
	// events maps fingerprints to executed kernel events once a traced
	// pass has counted them; cell spans carry the count.
	events map[string]uint64
	round  func(r int, tr *tracer) (roundOut, error)
	close  func()
}

// roundOut is what one round measured.
type roundOut struct {
	results []exp.Result // canonical order
	digest  string
	start   time.Time
	wall    time.Duration
	cpu     time.Duration // process CPU time inside the timed window
	alloc   uint64        // bytes allocated inside the timed window
	failed  int           // failed cells, digest mismatch aside
	// cellMS holds the CPU time of each cell run (fleet: its wall
	// time); kindMS splits it by workload kind. busy is the cell runs'
	// summed wall time.
	cellMS []float64
	kindMS map[string][]float64
	busy   time.Duration

	store       []*meteredStore // traced replay, every fleet round
	http        *httpMeter      // fleet
	workerCells int             // fleet: cells the workers ran
	journal     *exp.JournalStats
	recoverMS   float64 // fleet, traced
}

// setUp builds a fixture: the cells, their fingerprints and the
// workload's own preparation. This is the one-off work setup_s times.
func setUp(w *workload, seed uint64, tmp string) (*fixture, error) {
	s := &fixture{seed: seed, cells: w.cells(seed), close: func() {}}
	for _, e := range s.cells {
		s.fps = append(s.fps, e.Fingerprint())
	}
	if err := w.prepare(s, tmp); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warmUp runs one untimed round, so lazy set-up finishes before the
// clock starts. Its digest must equal the reference prepare computed or,
// when prepare computed none, becomes it.
func (s *fixture) warmUp() error {
	out, err := s.round(0, nil)
	switch {
	case err != nil:
		return err
	case out.failed > 0:
		return fmt.Errorf("%d cells failed in the warm-up round", out.failed)
	case s.want != "" && out.digest != s.want:
		return fmt.Errorf("warm-up round digest %s, want %s", out.digest, s.want)
	case s.want == "":
		s.ref, s.want = out.results, out.digest
	}
	return nil
}

func digest(results []exp.Result) string {
	sum := sha256.Sum256(exp.MarshalResults(results))
	return hex.EncodeToString(sum[:])
}

// setRef records reference results computed by prepare.
func (s *fixture) setRef(results []exp.Result) error {
	for _, res := range results {
		if res.Err != "" {
			return fmt.Errorf("reference cell %s: %s", res.Exp.Name(), res.Err)
		}
	}
	s.ref, s.want = results, digest(results)
	return nil
}

// window is a timed measurement window, on the wall and the process's
// CPU clock, that also meters allocation.
type window struct {
	t0 time.Time
	c0 time.Duration
	a0 uint64
}

func openWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{t0: time.Now(), c0: processCPU(), a0: ms.TotalAlloc}
}

func (w window) close(out *roundOut) {
	out.start, out.wall, out.cpu = w.t0, time.Since(w.t0), processCPU()-w.c0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.alloc = ms.TotalAlloc - w.a0
}

// runClients runs every cell once through runner, two closed-loop
// clients pulling from the round's shuffled order. Each client is locked
// to its OS thread, so the thread's CPU clock times exactly its own
// calls.
//
// The benchmark's own work between rounds (the collection, the digest
// check) evicts the caches. In a cache-replay round each client's first
// call then cost 3–4 times a warm one, more the busier the host, and
// those 2 calls of 243 made up most of the calls beyond cell_ms_p99; a
// long-lived RunAll worker is cold once per sweep, not once per round.
// So a non-nil prime is work each client does on its thread before its
// first call. Its CPU time is taken out of the round's; its allocation
// stays in. It runs inside the round's window because parking the
// clients until a window opened after priming cooled them again.
func runClients(runner *exp.Runner, s *fixture, r int, tr *tracer, prime func()) roundOut {
	order := rand.New(rand.NewPCG(s.seed, streamShuffle|uint64(r))).Perm(len(s.cells))
	results := make([]exp.Result, len(s.cells))
	ms := make([]float64, len(s.cells))
	walls := make([]time.Duration, len(s.cells))
	var primeCPU [clients]time.Duration
	var next atomic.Int64
	var wg sync.WaitGroup
	var out roundOut
	win := openWindow()
	for c := 1; c <= clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			if prime != nil {
				c0 := threadCPU()
				prime()
				primeCPU[c-1] = threadCPU() - c0
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				idx := order[i]
				c0, t0 := threadCPU(), time.Now()
				results[idx] = runner.Run(s.cells[idx])
				d, cpu := time.Since(t0), threadCPU()-c0
				ms[idx], walls[idx] = float64(cpu.Nanoseconds())/1e6, d
				if tr != nil {
					kind := s.cells[idx].Workload.Kind
					tr.span("cell", kind, c, t0, d, map[string]any{
						"fingerprint": s.fps[idx], "kind": kind, "events": s.events[s.fps[idx]],
					})
				}
			}
		}()
	}
	wg.Wait()
	win.close(&out)
	for _, d := range primeCPU {
		out.cpu -= d
	}
	out.digest = digest(results)
	out.cellMS = ms
	out.kindMS = make(map[string][]float64)
	for i, res := range results {
		if res.Err != "" {
			out.failed++
		}
		kind := s.cells[i].Workload.Kind
		out.kindMS[kind] = append(out.kindMS[kind], ms[i])
		out.busy += walls[i]
	}
	out.results = results
	return out
}

// prepareCompute: every round simulates every cell on a fresh Runner,
// so nothing is served from a cache.
func prepareCompute(s *fixture, _ string) error {
	s.round = func(r int, tr *tracer) (roundOut, error) {
		return runClients(exp.NewRunner(clients), s, r, tr, nil), nil
	}
	return nil
}

// prepareReplay computes every cell into a temporary DiskCache; each
// round then serves all of them from disk through a fresh Runner, the
// second run of `gridrepro -cache`.
func prepareReplay(s *fixture, tmp string) error {
	dir, err := os.MkdirTemp(tmp, "cache-replay-")
	if err != nil {
		return err
	}
	s.close = func() { os.RemoveAll(dir) }
	disk, err := exp.NewDiskCache(dir)
	if err != nil {
		return err
	}
	writer := exp.NewRunnerStore(clients, disk)
	if err := s.setRef(writer.RunAll(s.cells)); err != nil {
		return err
	}
	if n := writer.CacheStats().StoreErrors; n > 0 {
		return fmt.Errorf("%d cells failed to persist", n)
	}
	s.round = func(r int, tr *tracer) (roundOut, error) {
		var store exp.Store = disk
		var metered *meteredStore
		if tr != nil {
			metered = newMeteredStore(disk, tr, 0, s.events)
			store = metered
		}
		runner := exp.NewRunnerStore(clients, store)
		// Priming reads an entry straight from disk, past the Runner, so
		// every cell still goes through the store.
		out := runClients(runner, s, r, tr, func() { disk.Load(s.fps[0]) })
		// A replayed cell that had to be simulated was not replayed.
		out.failed += int(runner.CacheStats().Computed)
		if metered != nil {
			out.store = []*meteredStore{metered}
		}
		return out, nil
	}
	return nil
}

// fleetQueue is the in-process sweepd's queue tuning.
var fleetQueue = exp.QueueConfig{Poll: 5 * time.Millisecond, Slices: 8}

// fleetDeadline bounds one fleet round; a job still running after it
// is a hang, reported as an error.
const fleetDeadline = time.Minute

// prepareFleet computes the local reference results every fleet round
// must reproduce.
func prepareFleet(s *fixture, tmp string) error {
	if err := s.setRef(exp.NewRunner(clients).RunAll(s.cells)); err != nil {
		return err
	}
	s.round = func(_ int, tr *tracer) (roundOut, error) { return fleetRound(s, tmp, tr) }
	return nil
}

// fleetRound runs one sweep through an in-process sweepd: a fresh store
// and journaled queue behind the control-plane handler on a loopback
// server, two workers leasing and publishing, one submission. Only
// submission to finish is timed; the results are then read back from
// the server's store.
func fleetRound(s *fixture, tmp string, tr *tracer) (out roundOut, err error) {
	dir, err := os.MkdirTemp(tmp, "fleet-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	store, err := exp.NewDiskCache(filepath.Join(dir, "store"))
	if err != nil {
		return out, err
	}
	journal := filepath.Join(dir, "journal")
	q, _, err := exp.RecoverJobQueue(store, fleetQueue, journal)
	if err != nil {
		return out, err
	}
	defer q.Close()
	out.http = newHTTPMeter(exp.NewQueueHandler(q, exp.NewCacheServer(store)), tr)
	srv := httptest.NewServer(out.http)
	defer srv.Close()
	submitter, err := exp.NewQueueClient(srv.URL)
	if err != nil {
		return out, err
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopWorkers := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopWorkers()
	reports := make([]exp.WorkerReport, clients)
	for i := range clients {
		remote, err := exp.NewRemoteStore(srv.URL, nil)
		if err != nil {
			return out, err
		}
		qc, err := exp.NewQueueClient(srv.URL)
		if err != nil {
			return out, err
		}
		metered := newMeteredStore(remote, tr, i+1, s.events)
		out.store = append(out.store, metered)
		cfg := exp.WorkerConfig{ID: fmt.Sprintf("w%d", i+1), Runner: exp.NewRunnerStore(1, metered), Stop: stop}
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i] = qc.Work(cfg)
		}()
	}

	win := openWindow()
	job, err := submitter.Submit(s.cells, 0)
	if err != nil {
		return out, err
	}
	for st := job; !st.Finished(); {
		if time.Since(win.t0) > fleetDeadline {
			return out, fmt.Errorf("fleet job %s unfinished after %v", job.ID, fleetDeadline)
		}
		time.Sleep(time.Millisecond)
		var ok bool
		if st, ok = q.Status(job.ID); !ok {
			return out, fmt.Errorf("fleet job %s vanished", job.ID)
		}
	}
	win.close(&out)
	stopWorkers()

	for _, rep := range reports {
		out.failed += rep.Failed + rep.Rejected + rep.Errors
		out.workerCells += rep.Cells
	}
	out.failed += int(out.http.status5xx.Load())
	for _, m := range out.store {
		out.cellMS = append(out.cellMS, m.cellMS...)
	}
	out.kindMS = map[string][]float64{exp.KindPingPong: out.cellMS}
	out.busy = time.Duration(sum(out.cellMS) * 1e6)
	out.journal = q.JournalStats()
	if tr != nil {
		if out.recoverMS, err = timeRecovery(store, journal, filepath.Join(dir, "journal-copy")); err != nil {
			return out, err
		}
	}

	results := make([]exp.Result, len(s.cells))
	for i, fp := range s.fps {
		results[i], _ = store.Load(fp) // a missing entry fails the digest
	}
	out.results, out.digest = results, digest(results)
	return out, nil
}

// timeRecovery copies a live journal and times RecoverJobQueue on the
// copy, leaving the original untouched.
func timeRecovery(store *exp.DiskCache, journal, copyDir string) (float64, error) {
	if err := os.MkdirAll(copyDir, 0o755); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(journal)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(journal, e.Name()))
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(copyDir, e.Name()), blob, 0o644); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	q, _, err := exp.RecoverJobQueue(store, fleetQueue, copyDir)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return float64(d.Nanoseconds()) / 1e6, q.Close()
}
