package exp

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"strings"

	"repro/internal/mpiimpl"
	"repro/internal/npb"
	"repro/internal/perf"
	"repro/internal/ray2mesh"
)

// Axes is the command-line grammar of the experiment axes, shared by
// every command that names experiments by flags (cmd/sweep, cmd/gridsim):
// its fields hold the values of the eleven axis flags. A command sets the
// fields to its defaults, calls Register, parses its flags and calls
// Sweep, so the same flags name the same cells, and the same
// fingerprints, in every command.
type Axes struct {
	Impls     string  // "all", "mpi" or a comma list of implementations
	Tunings   string  // comma list of default, tcp, mpi, full, multilevel
	Topo      string  // comma list of grid, cluster and site:nodes layouts
	Placement string  // rank placement of every topology
	Nodes     int     // nodes per site of grid, half the nodes of cluster
	Workload  string  // one workload kind, with its argument
	Reps      int     // pingpong round trips per size, trace messages
	Size      string  // pattern and trace message size
	Iters     int     // pattern repetitions
	Scale     float64 // NPB and ray2mesh scale
	MaxSize   string  // largest pingpong message size
}

// Register defines the axis flags on fs, with the fields' current values
// as their defaults.
func (a *Axes) Register(fs *flag.FlagSet) {
	fs.StringVar(&a.Impls, "impls", a.Impls, `implementations: "all" (TCP + the four MPI), "mpi" (the four), or a comma list`)
	fs.StringVar(&a.Tunings, "tunings", a.Tunings, "tuning levels to cross (default, tcp, mpi, full, multilevel)")
	fs.StringVar(&a.Topo, "topo", a.Topo, `topologies to cross: grid, cluster, or per-site layouts like "rennes:8+nancy:4" (empty = grid, or the four-site Figure 8 testbed for ray2mesh)`)
	fs.StringVar(&a.Placement, "placement", a.Placement, "rank placement for every topology: block, round-robin, strided:<k>, master:<site> (default block)")
	fs.IntVar(&a.Nodes, "nodes", a.Nodes, "nodes per site (grid) / half the cluster size")
	fs.StringVar(&a.Workload, "workload", a.Workload, "workload: pingpong, trace, npb[:BENCH,...|:all], pattern:NAME ("+strings.Join(Patterns, ", ")+"), ray2mesh[:SITE,...|:all]")
	fs.IntVar(&a.Reps, "reps", a.Reps, "pingpong round trips per size / trace message count")
	fs.StringVar(&a.Size, "size", a.Size, "message size for pattern/trace workloads (k/M/G suffixes)")
	fs.IntVar(&a.Iters, "iters", a.Iters, "pattern repetitions")
	fs.Float64Var(&a.Scale, "scale", a.Scale, "NPB / ray2mesh workload scale (1.0 = the paper's full size)")
	fs.StringVar(&a.MaxSize, "max-size", a.MaxSize, "largest pingpong message size")
}

// Sweep turns the flags into the sweep they name. It refuses what would
// not run as spelled: unknown names, a value listed twice on one axis,
// an argument on a workload kind that takes none, a scale that is not a
// finite number ≥ 0 (or, for npb, above 1), a pattern with fewer than
// one iteration, and any cell the runner would refuse (a pingpong with
// no size or no round trip, a topology too small for its workload), so
// a command refuses a bad invocation before it starts anything.
func (a Axes) Sweep() (Sweep, error) {
	if a.Nodes < 1 {
		return Sweep{}, fmt.Errorf("-nodes must be ≥ 1, got %d", a.Nodes)
	}
	if !(a.Scale >= 0) || math.IsInf(a.Scale, 1) {
		return Sweep{}, fmt.Errorf("-scale must be a finite number ≥ 0, got %g", a.Scale)
	}
	size, err := ParseSize(a.Size)
	if err != nil {
		return Sweep{}, fmt.Errorf("bad -size: %w", err)
	}
	maxSize, err := ParseSize(a.MaxSize)
	if err != nil {
		return Sweep{}, fmt.Errorf("bad -max-size: %w", err)
	}
	var s Sweep
	if s.Impls, err = a.impls(); err != nil {
		return Sweep{}, err
	}
	if s.Tunings, err = list("tunings", a.Tunings, parseTuning); err != nil {
		return Sweep{}, err
	}
	if s.Workloads, err = a.workloads(size, maxSize); err != nil {
		return Sweep{}, err
	}
	if s.Topologies, err = a.topologies(s.Workloads[0].Kind == KindRay2Mesh); err != nil {
		return Sweep{}, err
	}
	for _, e := range s.Experiments() {
		if err := e.check(); err != nil {
			return Sweep{}, err
		}
	}
	return s, nil
}

func (a Axes) impls() ([]string, error) {
	switch a.Impls {
	case "all":
		return mpiimpl.WithTCP, nil
	case "mpi":
		return mpiimpl.All, nil
	}
	return list("impls", a.Impls, func(name string) (string, error) { return name, CheckImpl(name) })
}

// tuningNames spells the tuning levels on the command line.
var tuningNames = map[string]Tuning{
	"default":    {},
	"tcp":        {TCP: true},
	"mpi":        {MPI: true},
	"full":       {TCP: true, MPI: true},
	"multilevel": MultilevelTuning,
}

func parseTuning(name string) (Tuning, error) {
	if t, ok := tuningNames[name]; ok {
		return t, nil
	}
	return Tuning{}, fmt.Errorf("unknown tuning %q (want default, tcp, mpi, full, multilevel)", name)
}

// topologies parses -topo under -placement. An empty -topo is the grid,
// or for ray2mesh the application's Figure 8 testbed, so labels and
// fingerprints name the run that happens.
func (a Axes) topologies(ray bool) ([]Topology, error) {
	return list("topo", cmp.Or(a.Topo, "grid"), func(tok string) (Topology, error) {
		var topo Topology
		var err error
		switch {
		case a.Topo == "" && ray:
			topo = Ray2MeshTopology()
		case tok == "grid":
			topo = Grid(a.Nodes)
		case tok == "cluster":
			topo = Cluster(2 * a.Nodes)
		default:
			// An explicit per-site layout, e.g. "rennes:8+nancy:4+sophia:4".
			if topo, err = ParseLayout(tok); err != nil {
				return topo, fmt.Errorf("unknown topology %q (want grid, cluster, or a site:nodes layout): %w", tok, err)
			}
		}
		topo.Placement = Placement(a.Placement)
		return topo, topo.Validate()
	})
}

// workloads parses -workload: one kind, with the argument it takes.
func (a Axes) workloads(size, maxSize int) ([]Workload, error) {
	kind, arg, _ := strings.Cut(a.Workload, ":")
	switch kind {
	case KindPingPong, KindTrace:
		if arg != "" {
			return nil, fmt.Errorf("-workload %s takes no argument, got %q", kind, a.Workload)
		}
		if kind == KindTrace {
			return []Workload{TraceWorkload(size, a.Reps)}, nil
		}
		return []Workload{PingPongWorkload(perf.PowersOfTwoSizes(1<<10, maxSize), a.Reps)}, nil
	case KindPattern:
		if arg == "" {
			return nil, fmt.Errorf("-workload pattern needs a name, e.g. pattern:alltoall")
		}
		if err := CheckPattern(arg); err != nil {
			return nil, err
		}
		return []Workload{PatternWorkload(arg, size, a.Iters)}, nil
	case KindNPB:
		return list("workload", every(arg, npb.Names), func(bench string) (Workload, error) {
			return NPBWorkload(bench, a.Scale), CheckBench(bench)
		})
	case KindRay2Mesh:
		return list("workload", every(arg, ray2mesh.Sites), func(master string) (Workload, error) {
			return Ray2MeshWorkload(master, a.Scale), CheckSite(master)
		})
	}
	return nil, fmt.Errorf("unknown -workload %q", a.Workload)
}

// every spells an empty or "all" workload argument out as every name.
func every(arg string, names []string) string {
	if arg == "" || arg == "all" {
		return strings.Join(names, ",")
	}
	return arg
}

// list parses one axis's comma list, a value per non-empty item. It
// refuses a value listed twice, comparing labels: the sweep would count
// it twice but run it once.
func list[T any](axis, s string, parse func(string) (T, error)) ([]T, error) {
	var vals []T
	seen := make(map[string]bool)
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok == "" {
			continue
		}
		v, err := parse(tok)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprint(v)
		if seen[label] {
			return nil, fmt.Errorf("-%s lists %s twice", axis, label)
		}
		seen[label] = true
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("empty -%s", axis)
	}
	return vals, nil
}
