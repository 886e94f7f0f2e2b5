// The ray2mesh package keeps only the application; execution flows
// through the exp engine. The Table 6 and 7 tests therefore live in an
// external test package and run the application via exp.Run.
package ray2mesh_test

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
	"repro/internal/ray2mesh"
)

// testRunner is shared across the package's tests: runs are pure
// functions of their experiments, so the fingerprint cache only removes
// duplicate work between tests.
var testRunner = exp.NewRunner(0)

// run executes the application with the master on the given site, on
// the Figure 8 testbed at the paper's TCP tuning with MPICH2.
func run(t *testing.T, master string, scale float64) exp.Result {
	t.Helper()
	res := testRunner.Run(exp.Experiment{
		Impl:     mpiimpl.MPICH2,
		Tuning:   exp.Tuning{TCP: true},
		Topology: exp.Ray2MeshTopology(),
		Workload: exp.Ray2MeshWorkload(master, scale),
	})
	if res.Err != "" || res.DNF {
		t.Fatalf("ray2mesh@%s x%g: err=%q dnf=%v", master, scale, res.Err, res.DNF)
	}
	return res
}

// TestScaledHasNoFloor: Scaled used to clamp the ray count at one chunk
// per slave to dodge the deadlock; the fixed protocol needs no clamp.
func TestScaledHasNoFloor(t *testing.T) {
	if rays := ray2mesh.Default().Scaled(0.0001).Rays; rays != 100 {
		t.Fatalf("Scaled(0.0001) rays = %d, want exactly 100", rays)
	}
	if got := run(t, grid5000.Nancy, 0.0001).Metrics["total_rays"]; got != 100 {
		t.Fatalf("computed %g rays, want 100", got)
	}
}

func TestRayConservation(t *testing.T) {
	res := run(t, grid5000.Rennes, 0.05)
	want := ray2mesh.Default().Scaled(0.05).Rays
	if got := res.Metrics["total_rays"]; got != float64(want) {
		t.Fatalf("rays computed = %g, want all %d", got, want)
	}
	var sum float64
	for _, site := range ray2mesh.Sites {
		sum += res.Metrics["rays_per_node_"+site] * ray2mesh.NodesPerSite
	}
	if int(sum+0.5) != want {
		t.Fatalf("per-cluster accounting sums to %.0f, want %d", sum, want)
	}
}

func TestSophiaComputesMostRays(t *testing.T) {
	perNode := run(t, grid5000.Rennes, 0.1).Metrics
	rays := func(site string) float64 { return perNode["rays_per_node_"+site] }
	s := rays(grid5000.Sophia)
	for _, site := range []string{grid5000.Rennes, grid5000.Nancy, grid5000.Toulouse} {
		if rays(site) >= s {
			t.Errorf("%s (%.0f rays/node) ≥ Sophia (%.0f); the fastest cluster must compute most",
				site, rays(site), s)
		}
	}
	// Nancy is the slowest cluster.
	if rays(grid5000.Nancy) > rays(grid5000.Rennes) {
		t.Errorf("Nancy (%.0f) outran Rennes (%.0f)", rays(grid5000.Nancy), rays(grid5000.Rennes))
	}
}

// TestMasterProximityAdvantage is Table 6's diagonal: each cluster
// computes at least as many rays when the master is local as when it is
// remote (end-game chunks go to whoever's request arrives first).
func TestMasterProximityAdvantage(t *testing.T) {
	const scale = 0.1
	results := make(map[string]exp.Result)
	for _, m := range ray2mesh.Sites {
		results[m] = run(t, m, scale)
	}
	for _, cluster := range ray2mesh.Sites {
		key := "rays_per_node_" + cluster
		local := results[cluster].Metrics[key]
		for _, m := range ray2mesh.Sites {
			if m == cluster {
				continue
			}
			remote := results[m].Metrics[key]
			// Allow one chunk of slack across the 8-node mean.
			slack := float64(ray2mesh.Default().ChunkRays) / ray2mesh.NodesPerSite
			if local+slack < remote {
				t.Errorf("cluster %s: %.0f rays/node with local master < %.0f with master at %s",
					cluster, local, remote, m)
			}
		}
	}
}

// TestComputePhaseIndependentOfMaster is Table 7's first row: compute time
// barely depends on where the master sits.
func TestComputePhaseIndependentOfMaster(t *testing.T) {
	const scale = 0.1
	var times []float64
	for _, m := range ray2mesh.Sites {
		times = append(times, run(t, m, scale).Metrics["comp_s"])
	}
	minT, maxT := times[0], times[0]
	for _, v := range times {
		minT, maxT = min(minT, v), max(maxT, v)
	}
	if (maxT-minT)/minT > 0.05 {
		t.Errorf("compute times spread %.1f%% across master locations (%v); paper shows ≈equal",
			100*(maxT-minT)/minT, times)
	}
}

func TestPhaseTimesPositiveAndOrdered(t *testing.T) {
	res := run(t, grid5000.Nancy, 0.05)
	comp, merge, total := res.Metrics["comp_s"], res.Metrics["merge_s"], res.Metrics["total_s"]
	if comp <= 0 || merge <= 0 {
		t.Fatalf("phases: comp=%gs merge=%gs", comp, merge)
	}
	// The metrics are float seconds of exact durations: allow a rounding
	// nanosecond.
	if total < comp+merge-1e-9 || total != res.Elapsed.Seconds() {
		t.Fatalf("total %gs (elapsed %v) < comp %gs + merge %gs", total, res.Elapsed, comp, merge)
	}
}

// TestFullScaleMagnitudes checks the Table 7 calibration at full scale:
// compute ≈185 s, merge ≈165 s, total ≈360 s.
func TestFullScaleMagnitudes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run")
	}
	res := run(t, grid5000.Rennes, 1)
	if c := res.Metrics["comp_s"]; c < 165 || c > 210 {
		t.Errorf("compute phase = %.1f s, want ≈185", c)
	}
	if m := res.Metrics["merge_s"]; m < 140 || m > 190 {
		t.Errorf("merge phase = %.1f s, want ≈165", m)
	}
	if tt := res.Metrics["total_s"]; tt < 320 || tt > 400 {
		t.Errorf("total = %.1f s, want ≈360", tt)
	}
}
