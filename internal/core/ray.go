package core

import (
	"time"

	"repro/internal/exp"
	"repro/internal/mpiimpl"
	"repro/internal/ray2mesh"
)

// RayTable6 is the paper's Table 6: mean rays per node on each cluster
// (rows) for each master location (columns).
type RayTable6 struct {
	Clusters []string
	Masters  []string
	// Rays[cluster][master] is the mean ray count per node.
	Rays map[string]map[string]float64
}

// RayTable7 is the paper's Table 7: compute / merge / total times per
// master location.
type RayTable7 struct {
	Masters []string
	Comp    map[string]time.Duration
	Merge   map[string]time.Duration
	Total   map[string]time.Duration
}

// rayResults runs ray2mesh once per master location through the shared
// runner (Table 6 and Table 7 read different metrics of the same four
// experiments, so generating both costs four runs, not eight).
func rayResults(r *exp.Runner, scale float64) map[string]exp.Result {
	exps := make([]exp.Experiment, len(ray2mesh.Sites))
	for i, master := range ray2mesh.Sites {
		exps[i] = exp.Experiment{
			Impl:     mpiimpl.MPICH2,
			Tuning:   exp.Tuning{TCP: true},
			Topology: exp.Ray2MeshTopology(),
			Workload: exp.Ray2MeshWorkload(master, scale),
		}
	}
	out := make(map[string]exp.Result, len(exps))
	for i, res := range runAll(r, "ray2mesh", exps) {
		out[ray2mesh.Sites[i]] = res
	}
	return out
}

func seconds(res exp.Result, key string) time.Duration {
	return time.Duration(res.Metrics[key] * float64(time.Second))
}

// Table6 runs ray2mesh with the master on each of the four clusters and
// tabulates the ray distribution. scale shrinks the workload for tests
// (1.0 = the paper's one million rays).
func Table6(r *exp.Runner, scale float64) RayTable6 {
	t := RayTable6{
		Clusters: ray2mesh.Sites,
		Masters:  ray2mesh.Sites,
		Rays:     make(map[string]map[string]float64),
	}
	results := rayResults(r, scale)
	for _, master := range t.Masters {
		res := results[master]
		for _, cluster := range t.Clusters {
			if t.Rays[cluster] == nil {
				t.Rays[cluster] = make(map[string]float64)
			}
			t.Rays[cluster][master] = res.Metrics["rays_per_node_"+cluster]
		}
	}
	return t
}

// Table7 runs ray2mesh with the master on each cluster and tabulates the
// phase times.
func Table7(r *exp.Runner, scale float64) RayTable7 {
	t := RayTable7{
		Masters: ray2mesh.Sites,
		Comp:    make(map[string]time.Duration),
		Merge:   make(map[string]time.Duration),
		Total:   make(map[string]time.Duration),
	}
	results := rayResults(r, scale)
	for _, master := range t.Masters {
		res := results[master]
		// Elapsed is the exact virtual end time; deriving the merge phase
		// from it keeps comp+merge == total to the nanosecond, which the
		// rounded metrics floats cannot guarantee.
		t.Comp[master] = seconds(res, "comp_s")
		t.Total[master] = res.Elapsed
		t.Merge[master] = t.Total[master] - t.Comp[master]
	}
	return t
}
