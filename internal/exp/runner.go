package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes experiments across a bounded worker pool with a
// fingerprint-keyed result cache, optionally layered over a persistent
// Store (see DiskCache). Each experiment builds private simulation
// state, so workers never share anything mutable; results are identical
// whatever the worker count. An executing experiment is exactly one
// goroutine — its simulated ranks are coroutines inside the kernel, not
// goroutines of their own — so Workers() is the true OS-level
// parallelism of a sweep.
//
// The bound is global to the Runner, not per RunAll call: any number of
// goroutines may submit work concurrently (cmd/gridrepro generates every
// section of the paper at once) and at most Workers() experiments
// execute at any moment.
type Runner struct {
	workers int
	store   Store
	// sem bounds concurrently *executing* experiments across all
	// Run/RunAll callers; cache hits bypass it.
	sem chan struct{}

	computed int64 // executed fresh
	memory   int64 // served from the in-memory cache
	disk     int64 // loaded from the backing store
	badStore int64 // backing-store write failures (results stay usable)

	mu    sync.Mutex
	cache map[string]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	res  Result
}

// NewRunner creates a runner with the given pool size; workers <= 0 uses
// one worker per available CPU.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		workers: workers,
		sem:     make(chan struct{}, workers),
		cache:   make(map[string]*cacheEntry),
	}
}

// NewRunnerStore creates a runner whose in-memory cache is backed by a
// persistent store: misses consult the store before executing, and fresh
// results are written through to it.
func NewRunnerStore(workers int, s Store) *Runner {
	r := NewRunner(workers)
	r.store = s
	return r
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// CacheLen reports how many distinct experiments the in-memory cache
// holds.
func (r *Runner) CacheLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// CacheStats is the Runner's served-result accounting, split by source.
type CacheStats struct {
	// Computed experiments were executed by this Runner.
	Computed int64
	// Memory serves came from the in-memory fingerprint cache.
	Memory int64
	// Disk serves were loaded from the backing store.
	Disk int64
	// StoreErrors counts failed write-throughs to the backing store;
	// the corresponding results were still returned to callers.
	StoreErrors int64
}

// CacheStats snapshots the hit/miss/load counters.
func (r *Runner) CacheStats() CacheStats {
	return CacheStats{
		Computed:    atomic.LoadInt64(&r.computed),
		Memory:      atomic.LoadInt64(&r.memory),
		Disk:        atomic.LoadInt64(&r.disk),
		StoreErrors: atomic.LoadInt64(&r.badStore),
	}
}

func (r *Runner) entry(fp string) *cacheEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	en, ok := r.cache[fp]
	if !ok {
		en = &cacheEntry{}
		r.cache[fp] = en
	}
	return en
}

// Run executes one experiment, serving repeats from the in-memory cache
// and, when a backing store is configured, from disk. Concurrent calls
// with the same fingerprint run the experiment once; the others block
// until the result is ready and return it marked Cached.
func (r *Runner) Run(e Experiment) Result {
	fp, err := e.fingerprint()
	if err != nil {
		// Nothing can cache or execute it; check names the bad axis.
		if cerr := e.check(); cerr != nil {
			err = cerr
		}
		return Result{Exp: e, Err: err.Error()}
	}
	en := r.entry(fp)
	executed, loaded := false, false
	en.once.Do(func() {
		if r.store != nil {
			if res, ok := r.store.Load(fp); ok {
				en.res = res
				loaded = true
				atomic.AddInt64(&r.disk, 1)
				return
			}
		}
		r.sem <- struct{}{}
		en.res = Run(e)
		<-r.sem
		executed = true
		atomic.AddInt64(&r.computed, 1)
		// Failed runs are not persisted: an Err describes this process
		// (a panic, a bad axis), not a measurement worth replaying.
		if r.store != nil && en.res.Err == "" {
			if err := r.store.Store(fp, en.res); err != nil {
				atomic.AddInt64(&r.badStore, 1)
			}
		}
	})
	if !executed && !loaded {
		// This call neither executed nor disk-loaded the entry: it was
		// served from the in-memory cache populated by an earlier call.
		atomic.AddInt64(&r.memory, 1)
	}
	// Deep-copy so a caller mutating its result (sorting points,
	// annotating metrics) cannot corrupt the cached entry.
	res := en.res.clone()
	res.Cached = !executed
	return res
}

// RunAll executes a work list across the pool and returns results in
// input order. Sequential (workers=1) and parallel runs of the same list
// produce identical results.
func (r *Runner) RunAll(exps []Experiment) []Result {
	results := make([]Result, len(exps))
	n := r.workers
	if n > len(exps) {
		n = len(exps)
	}
	if n <= 1 {
		for i, e := range exps {
			results[i] = r.Run(e)
		}
		return results
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = r.Run(exps[i])
			}
		}()
	}
	for i := range exps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// RunSweep expands and executes a sweep.
func (r *Runner) RunSweep(s Sweep) []Result { return r.RunAll(s.Experiments()) }
