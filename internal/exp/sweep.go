package exp

import (
	"repro/internal/mpiimpl"
	"repro/internal/perf"
	"repro/internal/ray2mesh"
)

// Ray2MeshTopology is the application's testbed in the paper — four
// sites, eight nodes each (Figure 8). A ray2mesh experiment with a zero
// topology runs on it; sweeps over that workload should name it
// explicitly so labels describe the run that actually happens.
func Ray2MeshTopology() Topology {
	layout := make([]SiteSpec, len(ray2mesh.Sites))
	for i, name := range ray2mesh.Sites {
		layout[i] = SiteSpec{Name: name, Nodes: ray2mesh.NodesPerSite}
	}
	return Topology{Layout: layout}
}

// Sweep is a cross-product of experiment axes. Empty EagerThresholds means
// "no override" (a single pass with each profile's own threshold).
type Sweep struct {
	Impls           []string
	Tunings         []Tuning
	Topologies      []Topology
	Workloads       []Workload
	EagerThresholds []int
}

// Size is the number of experiments the sweep expands to.
func (s Sweep) Size() int {
	thr := len(s.EagerThresholds)
	if thr == 0 {
		thr = 1
	}
	return len(s.Impls) * len(s.Tunings) * len(s.Topologies) * len(s.Workloads) * thr
}

// Experiments expands the cross-product in a fixed order (implementation
// outermost, threshold innermost), so sweep expansion is deterministic and
// result slices line up with nested iteration over the axes.
func (s Sweep) Experiments() []Experiment {
	thrs := s.EagerThresholds
	if len(thrs) == 0 {
		thrs = []int{0}
	}
	exps := make([]Experiment, 0, s.Size())
	for _, impl := range s.Impls {
		for _, tun := range s.Tunings {
			for _, topo := range s.Topologies {
				for _, wl := range s.Workloads {
					for _, thr := range thrs {
						exps = append(exps, Experiment{
							Impl:           impl,
							Tuning:         tun,
							Topology:       topo,
							Workload:       wl,
							EagerThreshold: thr,
						})
					}
				}
			}
		}
	}
	return exps
}

// PaperSizes is the figures' pingpong size grid: 1 kB to 64 MB in powers
// of two.
func PaperSizes() []int { return perf.PowersOfTwoSizes(1<<10, 64<<20) }

// PaperMatrix is the paper's full implementation × tuning pingpong matrix
// on the Rennes–Nancy grid: raw TCP plus the four MPI implementations,
// each at the default, TCP-tuned and fully tuned levels (Figures 3, 6
// and 7 in one sweep).
func PaperMatrix(reps int) Sweep {
	return Sweep{
		Impls:      mpiimpl.WithTCP,
		Tunings:    TuningLevels,
		Topologies: []Topology{Grid(1)},
		Workloads:  []Workload{PingPongWorkload(PaperSizes(), reps)},
	}
}

// NPBMatrix is the implementation × kernel matrix of Figure 10: every MPI
// implementation on every NAS kernel, on the given topology.
func NPBMatrix(topo Topology, scale float64, benches []string) Sweep {
	wls := make([]Workload, 0, len(benches))
	for _, b := range benches {
		wls = append(wls, NPBWorkload(b, scale))
	}
	return Sweep{
		Impls:      mpiimpl.All,
		Tunings:    []Tuning{{TCP: true}},
		Topologies: []Topology{topo},
		Workloads:  wls,
	}
}
