package exp

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/mpiimpl"
)

// mixedSweep crosses several axes and workload kinds, so the parallel
// runner is exercised over heterogeneous experiments (run under -race in
// CI).
func mixedSweep() Sweep {
	return Sweep{
		Impls:      []string{mpiimpl.RawTCP, mpiimpl.MPICH2, mpiimpl.GridMPI, mpiimpl.OpenMPI},
		Tunings:    []Tuning{{}, {TCP: true}},
		Topologies: []Topology{Grid(1)},
		Workloads:  []Workload{PingPongWorkload(tinySizes, 3)},
	}
}

// TestRunnerReportsUnfingerprintable: an experiment JSON cannot encode
// (a NaN or infinite scale, a NaN fault loss) comes back from Runner.Run
// as Result.Err naming the bad axis, instead of panicking the caller, and
// nothing is computed or cached.
func TestRunnerReportsUnfingerprintable(t *testing.T) {
	r := NewRunner(1)
	for _, e := range []Experiment{
		{Impl: mpiimpl.GridMPI, Topology: Grid(1), Workload: NPBWorkload("CG", math.NaN())},
		{Impl: mpiimpl.GridMPI, Topology: Grid(1), Workload: NPBWorkload("CG", math.Inf(1))},
		{Impl: mpiimpl.GridMPI, Topology: Grid(1), Workload: Ray2MeshWorkload("rennes", math.Inf(1))},
		{Impl: mpiimpl.GridMPI, Topology: Grid(1), Workload: PingPongWorkload(tinySizes, 2),
			Faults: &FaultPlan{Events: []FaultEvent{{Kind: "loss", Loss: math.NaN()}}}},
	} {
		res := r.Run(e)
		if !strings.Contains(res.Err, "scale") && !strings.Contains(res.Err, "loss") {
			t.Errorf("%s: Err = %q, want a refusal naming the bad scale or loss", e.Name(), res.Err)
		}
	}
	if st := r.CacheStats(); st != (CacheStats{}) || r.CacheLen() != 0 {
		t.Errorf("refused experiments reached the cache: %+v, %d entries", st, r.CacheLen())
	}
}

// TestRunnerSequentialVsParallel is the engine's core guarantee: a
// multi-worker sweep serializes byte-for-byte identically to a
// single-worker run of the same work list, and to a second parallel run.
func TestRunnerSequentialVsParallel(t *testing.T) {
	exps := mixedSweep().Experiments()
	seq := MarshalResults(NewRunner(1).RunAll(exps))
	par := MarshalResults(NewRunner(8).RunAll(exps))
	par2 := MarshalResults(NewRunner(8).RunAll(exps))
	if !bytes.Equal(seq, par) {
		t.Fatal("parallel sweep results differ from sequential")
	}
	if !bytes.Equal(par, par2) {
		t.Fatal("two parallel sweeps differ")
	}
}

// TestRunnerParallelMixedWorkloads runs pattern + NPB workloads through a
// multi-worker pool, twice, comparing results — a determinism check that
// doubles as the -race pass over every workload path.
func TestRunnerParallelMixedWorkloads(t *testing.T) {
	s := Sweep{
		Impls:      []string{mpiimpl.MPICH2, mpiimpl.GridMPI},
		Tunings:    []Tuning{{TCP: true}},
		Topologies: []Topology{Grid(2)},
		Workloads: []Workload{
			PatternWorkload("alltoall", 32<<10, 2),
			PatternWorkload("ring", 16<<10, 2),
			NPBWorkload("EP", 0.02),
			NPBWorkload("IS", 0.2),
		},
	}
	a := MarshalResults(NewRunner(8).RunSweep(s))
	b := MarshalResults(NewRunner(3).RunSweep(s))
	if !bytes.Equal(a, b) {
		t.Fatal("mixed-workload sweep is not deterministic across pool sizes")
	}
}

// TestRunnerCache: rerunning an experiment through one runner serves the
// cached result, marked Cached, with identical content.
func TestRunnerCache(t *testing.T) {
	r := NewRunner(4)
	e := tinyPingPong(mpiimpl.GridMPI, Tuning{TCP: true})
	first := r.Run(e)
	if first.Cached {
		t.Error("first run reported a cache hit")
	}
	second := r.Run(e)
	if !second.Cached {
		t.Error("second run missed the cache")
	}
	a := MarshalResults([]Result{first})
	b := MarshalResults([]Result{second})
	if !bytes.Equal(a, b) {
		t.Error("cached result differs from the original")
	}
	if r.CacheLen() != 1 {
		t.Errorf("cache holds %d entries, want 1", r.CacheLen())
	}
	// A batch containing duplicates runs each distinct experiment once.
	dup := []Experiment{e, e, e, tinyPingPong(mpiimpl.MPICH2, Tuning{})}
	results := r.RunAll(dup)
	if r.CacheLen() != 2 {
		t.Errorf("cache holds %d entries after duplicate batch, want 2", r.CacheLen())
	}
	if !results[1].Cached || !results[2].Cached {
		t.Error("duplicate batch entries were not served from cache")
	}
}

// TestRunnerConcurrentSameExperiment hammers one fingerprint from many
// goroutines: exactly one execution, everyone gets the same bytes.
func TestRunnerConcurrentSameExperiment(t *testing.T) {
	r := NewRunner(8)
	e := tinyPingPong(mpiimpl.OpenMPI, Tuning{TCP: true})
	var wg sync.WaitGroup
	results := make([]Result, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Run(e)
		}(i)
	}
	wg.Wait()
	misses := 0
	ref := MarshalResults([]Result{results[0]})
	for i, res := range results {
		if !res.Cached {
			misses++
		}
		if got := MarshalResults([]Result{res}); !bytes.Equal(got, ref) {
			t.Fatalf("goroutine %d saw different result bytes", i)
		}
	}
	if misses != 1 {
		t.Errorf("experiment executed %d times, want exactly once", misses)
	}
}

// TestRunnerDefaults: worker clamping.
func TestRunnerDefaults(t *testing.T) {
	if NewRunner(0).Workers() < 1 {
		t.Error("NewRunner(0) has no workers")
	}
	if got := NewRunner(3).Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
}
