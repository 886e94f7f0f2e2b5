package exp

import (
	"bytes"
	"testing"

	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
)

// multilevelSweep is a small all-collectives multilevel batch on the
// 3-site asymmetric layout (the shape GridMPI's two-site algorithms
// cannot handle).
func multilevelSweep() []Experiment {
	asym := Asym(Site(grid5000.Rennes, 3), Site(grid5000.Nancy, 2), Site(grid5000.Sophia, 2))
	var exps []Experiment
	for _, p := range []string{"bcast", "reduce", "allreduce", "gather", "scatter", "allgather", "alltoall", "barrier"} {
		exps = append(exps, Experiment{
			Impl:     mpiimpl.GridMPI,
			Tuning:   MultilevelTuning,
			Topology: asym,
			Workload: PatternWorkload(p, 64<<10, 2),
		})
	}
	return exps
}

// TestMultilevelDeterministicAcrossWorkers: the multilevel batch's
// canonical result bytes are identical whatever the pool size, and
// across reruns — collective staging must not leak scheduling
// nondeterminism into the results.
func TestMultilevelDeterministicAcrossWorkers(t *testing.T) {
	marshal := func(workers int) []byte {
		results := NewRunner(workers).RunAll(multilevelSweep())
		for _, res := range results {
			if res.Err != "" {
				t.Fatalf("%s: %s", res.Exp.Name(), res.Err)
			}
		}
		return MarshalResults(results)
	}
	seq := marshal(1)
	for _, workers := range []int{4, 4} { // second 4 is the rerun
		if par := marshal(workers); !bytes.Equal(seq, par) {
			t.Fatalf("multilevel results diverged at %d workers (%d vs %d bytes)", workers, len(par), len(seq))
		}
	}
}

// TestMultilevelLargeCollectivesReplay: GridMPI fully tuned against
// multilevel, 1 MiB bcast and allreduce × 3 iterations on a 3-site
// layout. The results are byte-identical at 1 and 4 workers, a fresh
// runner over the warmed cache directory recomputes nothing and returns
// the same bytes, and multilevel is no slower than flat.
func TestMultilevelLargeCollectivesReplay(t *testing.T) {
	topo, err := ParseLayout("rennes:4+nancy:2+sophia:2")
	if err != nil {
		t.Fatal(err)
	}
	var exps []Experiment
	for _, p := range []string{"bcast", "allreduce"} {
		for _, tuning := range []Tuning{{TCP: true, MPI: true}, MultilevelTuning} {
			exps = append(exps, Experiment{Impl: mpiimpl.GridMPI, Tuning: tuning, Topology: topo, Workload: PatternWorkload(p, 1<<20, 3)})
		}
	}
	dir := t.TempDir()
	run := func(workers int, dir string) ([]Result, CacheStats) {
		r, err := NewRunnerDir(workers, dir)
		if err != nil {
			t.Fatal(err)
		}
		results := r.RunAll(exps)
		for _, res := range results {
			if res.Err != "" {
				t.Fatalf("%s: %s", res.Exp.Name(), res.Err)
			}
		}
		return results, r.CacheStats()
	}
	seq, _ := run(1, dir)
	want := MarshalResults(seq)
	if par, _ := run(4, ""); !bytes.Equal(MarshalResults(par), want) {
		t.Fatal("results differ between 1 and 4 workers")
	}
	replay, stats := run(4, dir)
	if stats.Computed != 0 {
		t.Errorf("replay over the warmed cache computed %d cells, want 0", stats.Computed)
	}
	if !bytes.Equal(MarshalResults(replay), want) {
		t.Error("cached replay differs from the computed results")
	}
	for i := 0; i < len(seq); i += 2 {
		if flat, ml := seq[i], seq[i+1]; ml.Elapsed > flat.Elapsed {
			t.Errorf("%s: multilevel %v slower than flat %v", ml.Exp.Name(), ml.Elapsed, flat.Elapsed)
		}
	}
}

// TestMultilevelRejectsRay2Mesh: the application builds its own
// communication stack, so the tuning level must refuse rather than
// silently measure flat collectives under a multilevel label.
func TestMultilevelRejectsRay2Mesh(t *testing.T) {
	res := Run(Experiment{
		Impl:     mpiimpl.GridMPI,
		Tuning:   MultilevelTuning,
		Workload: Ray2MeshWorkload(grid5000.Rennes, 0.02),
	})
	if res.Err == "" {
		t.Fatal("ray2mesh under multilevel tuning did not error")
	}
}
