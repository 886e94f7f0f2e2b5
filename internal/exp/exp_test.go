package exp

import (
	"bytes"
	"maps"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/grid5000"
	"repro/internal/mpi"
	"repro/internal/mpiimpl"
)

// tinySizes keeps unit-test experiments fast.
var tinySizes = []int{1 << 10, 64 << 10}

func tinyPingPong(impl string, tun Tuning) Experiment {
	return Experiment{
		Impl:     impl,
		Tuning:   tun,
		Topology: Grid(1),
		Workload: PingPongWorkload(tinySizes, 3),
	}
}

func TestSweepExpansion(t *testing.T) {
	s := Sweep{
		Impls:      []string{mpiimpl.RawTCP, mpiimpl.GridMPI},
		Tunings:    TuningLevels,
		Topologies: []Topology{Grid(1), Cluster(2)},
		Workloads:  []Workload{PingPongWorkload(tinySizes, 3)},
	}
	exps := s.Experiments()
	if len(exps) != s.Size() || len(exps) != 2*3*2*1 {
		t.Fatalf("expanded %d experiments, Size()=%d, want 12", len(exps), s.Size())
	}
	// Implementation is the outermost axis; within one implementation the
	// tuning axis advances first.
	if exps[0].Impl != mpiimpl.RawTCP || exps[6].Impl != mpiimpl.GridMPI {
		t.Errorf("impl-major order broken: %s, %s", exps[0].Name(), exps[6].Name())
	}
	if exps[0].Tuning != TuningLevels[0] || exps[2].Tuning != TuningLevels[1] {
		t.Errorf("tuning order broken: %s, %s", exps[0].Name(), exps[2].Name())
	}
}

func TestFingerprint(t *testing.T) {
	a := tinyPingPong(mpiimpl.GridMPI, Tuning{TCP: true})
	b := tinyPingPong(mpiimpl.GridMPI, Tuning{TCP: true})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical experiments fingerprint differently")
	}
	variants := []Experiment{
		tinyPingPong(mpiimpl.MPICH2, Tuning{TCP: true}),
		tinyPingPong(mpiimpl.GridMPI, Tuning{}),
		{Impl: mpiimpl.GridMPI, Tuning: Tuning{TCP: true}, Topology: Cluster(2), Workload: PingPongWorkload(tinySizes, 3)},
		{Impl: mpiimpl.GridMPI, Tuning: Tuning{TCP: true}, Topology: Grid(1), Workload: PingPongWorkload(tinySizes, 4)},
	}
	seen := map[string]string{a.Fingerprint(): a.Name()}
	for _, v := range variants {
		if prev, dup := seen[v.Fingerprint()]; dup {
			t.Errorf("fingerprint collision: %s vs %s", v.Name(), prev)
		}
		seen[v.Fingerprint()] = v.Name()
	}
	// Aliases normalize to one key, the first of each group's: NPB at
	// Scale 0 ≡ 1.0 and Timeout 0 ≡ one hour, and every negative
	// Timeout, which means no limit, ≡ −1 ns, or ≡ 0 for ray2mesh, whose
	// default is no limit. Where a prefix is given, the first spelling
	// keeps the fingerprint it has always had.
	budget := func(w Workload, d time.Duration) Experiment {
		w.Timeout = d
		e := Experiment{Impl: mpiimpl.MPICH2, Tuning: Tuning{TCP: true}, Topology: Grid(2), Workload: w}
		if w.Kind == KindRay2Mesh {
			e.Topology = Topology{}
		}
		return e
	}
	for _, group := range []struct {
		prefix string
		alias  []Experiment
	}{
		{"", []Experiment{budget(NPBWorkload("EP", 1), 0), budget(NPBWorkload("EP", 0), 0), budget(NPBWorkload("EP", 1), time.Hour)}},
		{"074074c1", []Experiment{budget(NPBWorkload("EP", 0.02), -1), budget(NPBWorkload("EP", 0.02), -5*time.Second), budget(NPBWorkload("EP", 0.02), -time.Hour)}},
		{"", []Experiment{budget(PatternWorkload("bcast", 1<<10, 1), -1), budget(PatternWorkload("bcast", 1<<10, 1), -time.Second)}},
		{"c64423d2", []Experiment{budget(Ray2MeshWorkload(grid5000.Rennes, 0.01), 0), budget(Ray2MeshWorkload(grid5000.Rennes, 0.01), -1), budget(Ray2MeshWorkload(grid5000.Rennes, 0.01), -time.Second)}},
	} {
		want := group.alias[0].Fingerprint()
		if !strings.HasPrefix(want, group.prefix) {
			t.Errorf("%s: fingerprint %s, want the historic %s…", group.alias[0].Name(), want, group.prefix)
		}
		for _, e := range group.alias[1:] {
			if got := e.Fingerprint(); got != want {
				t.Errorf("%s with timeout %v: fingerprint %s, want %s as with timeout %v",
					e.Name(), e.Workload.Timeout, got, want, group.alias[0].Workload.Timeout)
			}
		}
	}
}

// TestRunDeterminism: the same experiment run twice yields byte-identical
// serialized results (points, census, everything).
func TestRunDeterminism(t *testing.T) {
	e := tinyPingPong(mpiimpl.MPICH2, Tuning{TCP: true})
	a := MarshalResults([]Result{Run(e)})
	b := MarshalResults([]Result{Run(e)})
	if !bytes.Equal(a, b) {
		t.Fatal("two runs of one experiment serialized differently")
	}
}

func TestTopologyWANOverrides(t *testing.T) {
	topo := Grid(1)
	topo.WANOneWay = 25 * time.Millisecond
	topo.WANRate = 1.25e8
	net, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := net.Path(net.Host("rennes-1"), net.Host("nancy-1"))
	if p.OneWay != 25*time.Millisecond {
		t.Errorf("override one-way = %v, want 25ms", p.OneWay)
	}
	if got := p.Bottleneck(); got != 1.25e8 {
		t.Errorf("bottleneck = %g, want the overridden 1 Gbps uplink", got)
	}
	// An unknown site must fail like a standard layout does, not default to
	// a silently wrong CPU speed.
	bad := Run(Experiment{Impl: mpiimpl.RawTCP,
		Topology: Topology{Layout: []SiteSpec{{"renne", 1}, {"nancy", 1}}, WANRate: 1e8},
		Workload: PingPongWorkload([]int{1 << 10}, 1)})
	if bad.Err == "" || !strings.Contains(bad.Err, "unknown site") {
		t.Errorf("unknown-site override err = %q", bad.Err)
	}
	// A longer WAN must slow the same pingpong down.
	slow := Experiment{Impl: mpiimpl.RawTCP, Topology: topo, Workload: PingPongWorkload([]int{1 << 10}, 3)}
	fast := Experiment{Impl: mpiimpl.RawTCP, Topology: Grid(1), Workload: PingPongWorkload([]int{1 << 10}, 3)}
	if s, f := Run(slow), Run(fast); s.Points[0].MinRTT <= f.Points[0].MinRTT {
		t.Errorf("25 ms WAN pingpong (%v) not slower than 5.8 ms (%v)", s.Points[0].MinRTT, f.Points[0].MinRTT)
	}
}

func TestPatternWorkloadCensus(t *testing.T) {
	res := Run(Experiment{
		Impl:     mpiimpl.GridMPI,
		Tuning:   Tuning{TCP: true},
		Topology: Grid(2),
		Workload: PatternWorkload("bcast", 4<<10, 3),
	})
	if res.Err != "" || res.DNF {
		t.Fatalf("bcast pattern failed: err=%q dnf=%v", res.Err, res.DNF)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
	var bcasts int64
	for _, c := range res.Census.Collectives {
		if c.Op == "bcast" {
			bcasts = c.Calls
		}
	}
	if bcasts != 3 {
		t.Errorf("bcast calls = %d, want 3", bcasts)
	}
	bad := Run(Experiment{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: PatternWorkload("nope", 1, 1)})
	if bad.Err == "" || !strings.Contains(bad.Err, "unknown pattern") {
		t.Errorf("unknown pattern err = %q", bad.Err)
	}
	// A negative timeout means no budget: the run completes instead of
	// reporting DNF.
	unlimited := PatternWorkload("barrier", 1, 2)
	unlimited.Timeout = -1
	if res := Run(Experiment{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: unlimited}); res.DNF || res.Err != "" {
		t.Errorf("unlimited pattern run: dnf=%v err=%q", res.DNF, res.Err)
	}
}

func TestNPBWorkloadAndDNF(t *testing.T) {
	e := Experiment{
		Impl:     mpiimpl.MPICH2,
		Tuning:   Tuning{TCP: true},
		Topology: Grid(2),
		Workload: NPBWorkload("EP", 0.02),
	}
	res := Run(e)
	if res.Err != "" || res.DNF {
		t.Fatalf("EP failed: err=%q dnf=%v", res.Err, res.DNF)
	}
	if res.Elapsed <= 0 || res.Census.P2PSends == 0 {
		t.Errorf("EP elapsed=%v p2p=%d, want both positive", res.Elapsed, res.Census.P2PSends)
	}
	// An absurd budget forces the paper's DNF classification.
	e.Workload.Timeout = time.Microsecond
	if res := Run(e); !res.DNF || res.Err != "" {
		t.Errorf("1µs budget: dnf=%v err=%q, want a clean DNF", res.DNF, res.Err)
	}
}

func TestRay2MeshWorkload(t *testing.T) {
	res := Run(Experiment{
		Impl:     mpiimpl.MPICH2,
		Workload: Ray2MeshWorkload(grid5000.Rennes, 0.05),
	})
	if res.Err != "" {
		t.Fatalf("ray2mesh: %s", res.Err)
	}
	if res.Metrics["total_rays"] != 50000 {
		t.Errorf("total rays = %g, want 50000", res.Metrics["total_rays"])
	}
	if res.Census.P2PSends == 0 {
		t.Error("ray2mesh census not recorded")
	}
	// Tiny scales run exactly what they ask for — fewer chunks than
	// slaves no longer deadlocks (or clamps) the self-scheduler.
	tiny := Run(Experiment{Impl: mpiimpl.MPICH2, Workload: Ray2MeshWorkload(grid5000.Rennes, 0.001)})
	if tiny.Err != "" {
		t.Fatalf("tiny ray2mesh: %s", tiny.Err)
	}
	if tiny.Metrics["total_rays"] != 1000 {
		t.Errorf("tiny-scale rays = %g, want exactly 1000 (no floor)", tiny.Metrics["total_rays"])
	}
	if res.Metrics["rays_per_node_"+grid5000.Sophia] <= 0 {
		t.Error("no per-site ray metrics recorded")
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
}

// TestBadExperimentsReportErr: malformed experiments come back as
// Result.Err, never as a panic that would kill a worker pool.
func TestBadExperimentsReportErr(t *testing.T) {
	bad := []Experiment{
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: Workload{Kind: "bogus"}},
		{Impl: "LAM/MPI", Topology: Grid(1), Workload: PingPongWorkload(tinySizes, 1)},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: NPBWorkload("ZZ", 0.1)},
		{Impl: mpiimpl.MPICH2, Workload: Ray2MeshWorkload("paris", 0.05)},
		// Topologies that cannot host the workload: empty, and a pingpong
		// with a single endpoint. Both must come back as Err, not a panic
		// that would kill a worker pool.
		{Impl: mpiimpl.MPICH2, Workload: PingPongWorkload(tinySizes, 1)},
		{Impl: mpiimpl.MPICH2, Topology: Cluster(1), Workload: PingPongWorkload(tinySizes, 1)},
		// A pingpong without round trips has no RTT: its bandwidth would
		// be +Inf, which no result encoding can carry.
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: PingPongWorkload(tinySizes, 0)},
		// A trace needs at least one message: a negative count would
		// make a slice with a negative capacity, and zero an empty
		// trace that a store would cache.
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: TraceWorkload(1<<20, -1)},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: TraceWorkload(1<<20, 0)},
		// The pingpong pattern on one rank would send to itself.
		{Impl: mpiimpl.MPICH2, Topology: Cluster(1), Workload: PatternWorkload("pingpong", 1<<20, 2)},
		// ray2mesh needs its master site in the layout, and two slaves
		// for the merge phase.
		{Impl: mpiimpl.MPICH2, Topology: Asym(Site(grid5000.Nancy, 2), Site(grid5000.Sophia, 2)), Workload: Ray2MeshWorkload(grid5000.Rennes, 0.05)},
		{Impl: mpiimpl.MPICH2, Topology: Cluster(1), Workload: Ray2MeshWorkload(grid5000.Rennes, 0.05)},
		{Impl: mpiimpl.MPICH2, Workload: Ray2MeshWorkload(grid5000.Rennes, -0.05)},
		// A fabric faster than light or slower than a byte per second
		// would run and cache an impossible bandwidth.
		{Impl: mpiimpl.MPICH2, Workload: FabricWorkload(-time.Millisecond, 250e6, time.Microsecond, 0, tinySizes, 1)},
		{Impl: mpiimpl.MPICH2, Workload: FabricWorkload(3*time.Microsecond, 250e6, -time.Millisecond, 0, tinySizes, 1)},
		{Impl: mpiimpl.MPICH2, Workload: FabricWorkload(3*time.Microsecond, 250e6, time.Microsecond, -time.Millisecond, tinySizes, 1)},
		{Impl: mpiimpl.MPICH2, Workload: FabricWorkload(3*time.Microsecond, 1e-300, time.Microsecond, 0, tinySizes, 1)},
		// A negative message size runs as an empty one and reports a
		// negative bandwidth.
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: PingPongWorkload([]int{-1024}, 3)},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: PingPongWorkload([]int{1024, -1}, 3)},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: TraceWorkload(-1<<20, 3)},
		{Impl: mpiimpl.MPICH2, Topology: Grid(2), Workload: PatternWorkload("bcast", -4096, 1)},
		{Impl: mpiimpl.MPICH2, Workload: FabricWorkload(3*time.Microsecond, 250e6, time.Microsecond, 0, []int{-1}, 1)},
		// A scale that names no run: NPB would clamp -1 to one
		// iteration, and NaN cannot be fingerprinted.
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: NPBWorkload("CG", -1)},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: NPBWorkload("CG", math.NaN())},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: NPBWorkload("CG", math.Inf(1))},
		// A pingpong without sizes measures nothing.
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: PingPongWorkload(nil, 3)},
		// A pattern without an iteration measures nothing either, and
		// its elapsed 0 would be cached.
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: PatternWorkload("alltoall", 1024, 0)},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: PatternWorkload("alltoall", 1024, -1)},
		// NPB's largest class is scale 1: a larger scale would run class
		// B under another fingerprint.
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: NPBWorkload("EP", 3)},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: NPBWorkload("EP", 1.0001)},
		// A negative override would run the default under a
		// fingerprint of its own.
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: PingPongWorkload(tinySizes, 1), EagerThreshold: -1},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: PingPongWorkload(tinySizes, 1), SocketBuffer: -4096},
		// A field the kind does not read would run the same cell under
		// a fingerprint of its own, and a NaN there could not even be
		// fingerprinted.
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: Workload{Kind: KindPingPong, Sizes: tinySizes, Reps: 1, Scale: 0.5}},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: Workload{Kind: KindPingPong, Sizes: tinySizes, Reps: 1, Iters: 7}},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: Workload{Kind: KindPingPong, Sizes: tinySizes, Reps: 1, Bench: "CG"}},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: Workload{Kind: KindPingPong, Sizes: tinySizes, Reps: 1, Timeout: 5 * time.Second}},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: Workload{Kind: KindPingPong, Sizes: tinySizes, Reps: 1, Master: grid5000.Rennes}},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: Workload{Kind: KindPingPong, Sizes: tinySizes, Reps: 1, Scale: math.NaN()}},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: Workload{Kind: KindTrace, Size: 1 << 10, Reps: 3, Sizes: tinySizes}},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: Workload{Kind: KindPattern, Pattern: "bcast", Size: 1 << 10, Iters: 1, Scale: 0.5}},
		{Impl: mpiimpl.MPICH2, Topology: Grid(1), Workload: Workload{Kind: KindNPB, Bench: "EP", Scale: 0.02, Size: 1 << 10}},
		{Impl: mpiimpl.MPICH2, Workload: Workload{Kind: KindRay2Mesh, Master: grid5000.Rennes, Scale: 0.01, Reps: 3}},
		{Impl: mpiimpl.MPICH2, Workload: Workload{Kind: KindFabric, Sizes: tinySizes, Reps: 1, FabricRate: 250e6, Timeout: time.Second}},
	}
	for _, e := range bad {
		// check must refuse each one: a panic caught by Run's recover
		// means the experiment got past it.
		if res := Run(e); res.Err == "" || strings.Contains(res.Err, "panic") {
			t.Errorf("%s: Err = %q, want a refusal from check", e.Name(), res.Err)
		}
	}
}

// TestRay2MeshAxesApply: every experiment axis reaches the application
// — an eager threshold below the 69 kB chunk size, a socket-buffer
// override, a WAN override and a placement each change the run, and a
// time budget makes it DNF.
func TestRay2MeshAxesApply(t *testing.T) {
	base := Experiment{Impl: mpiimpl.MPICH2, Tuning: Tuning{TCP: true}, Topology: Ray2MeshTopology(), Workload: Ray2MeshWorkload(grid5000.Rennes, 0.02)}
	healthy := Run(base)
	if healthy.Err != "" {
		t.Fatalf("ray2mesh: %s", healthy.Err)
	}
	eager, buffer, wan, placed := base, base, base, base
	eager.EagerThreshold = 32 << 10
	buffer.SocketBuffer = 64 << 10
	wan.Topology.WANRate = 1e8
	placed.Topology.Placement = PlaceRoundRobin
	for name, e := range map[string]Experiment{"eager": eager, "buffer": buffer, "wan": wan, "placement": placed} {
		res := Run(e)
		if res.Err != "" || res.DNF {
			t.Errorf("%s: err=%q dnf=%v", name, res.Err, res.DNF)
			continue
		}
		if res.Elapsed == healthy.Elapsed && maps.Equal(res.Metrics, healthy.Metrics) {
			t.Errorf("%s override left the ray2mesh result unchanged", name)
		}
	}
	if res := Run(eager); res.Census.Rendezvous == 0 {
		t.Error("chunks under a 32 KiB eager threshold sent no rendezvous")
	}
	budget := base
	budget.Workload.Timeout = time.Second
	if res := Run(budget); !res.DNF || res.Err != "" {
		t.Errorf("1 s budget: dnf=%v err=%q, want a clean DNF", res.DNF, res.Err)
	}
}

// TestRay2MeshTuningApplies: the tuning axis reaches the application —
// untuned TCP slows the merge phase's big WAN transfers.
func TestRay2MeshTuningApplies(t *testing.T) {
	tuned := Run(Experiment{Impl: mpiimpl.MPICH2, Tuning: Tuning{TCP: true}, Workload: Ray2MeshWorkload(grid5000.Rennes, 0.05)})
	untuned := Run(Experiment{Impl: mpiimpl.MPICH2, Workload: Ray2MeshWorkload(grid5000.Rennes, 0.05)})
	if untuned.Elapsed <= tuned.Elapsed {
		t.Errorf("untuned ray2mesh (%v) not slower than TCP-tuned (%v)", untuned.Elapsed, tuned.Elapsed)
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{{"512", 512}, {"64k", 64 << 10}, {"1M", 1 << 20}, {"2G", 2 << 30}, {" 8K ", 8 << 10}} {
		got, err := ParseSize(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"12q", "-4k", "-1", "9223372036854775807k", "8589934592G", "99999999999999999999"} {
		if n, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) = %d, want an error", bad, n)
		}
	}
}

// TestFabricWorkload: the §5 heterogeneity pingpong runs on its own
// two-node fabric testbed and stack, which the Topology and Tuning axes
// may not override; the experiment's other overrides apply.
func TestFabricWorkload(t *testing.T) {
	e := Experiment{
		Impl:           mpiimpl.Madeleine,
		EagerThreshold: mpi.Infinite,
		Workload:       FabricWorkload(3*time.Microsecond, 250e6, time.Microsecond, 0, []int{1, 64 << 10}, 3),
	}
	res := Run(e)
	if res.Err != "" {
		t.Fatalf("fabric run: %s", res.Err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	if lat := res.Points[0].OneWay(); lat <= 0 || lat > 100*time.Microsecond {
		t.Errorf("1 B fabric latency = %v, want a few microseconds", lat)
	}
	// A gateway overhead strictly increases latency.
	gw := e
	gw.Workload.Gateway = 40 * time.Microsecond
	gwRes := Run(gw)
	if gwRes.Err != "" {
		t.Fatalf("gateway run: %s", gwRes.Err)
	}
	if gwRes.Points[0].OneWay() <= res.Points[0].OneWay() {
		t.Error("gateway overhead did not increase latency")
	}
	// The fabric's testbed and stack replace the Topology and Tuning
	// axes: setting either is rejected, not ignored.
	for name, bad := range map[string]Experiment{
		"tuning":   {Impl: e.Impl, Tuning: Tuning{TCP: true}, Workload: e.Workload},
		"topology": {Impl: e.Impl, Topology: Grid(1), Workload: e.Workload},
	} {
		if res := Run(bad); res.Err == "" {
			t.Errorf("fabric experiment with a foreign %s axis was not rejected", name)
		}
	}
	// A socket-buffer override applies to the fabric's stack.
	small := e
	small.SocketBuffer = 1 << 10
	smallRes := Run(small)
	if smallRes.Err != "" {
		t.Fatalf("fabric with a socket buffer: %s", smallRes.Err)
	}
	if smallRes.Points[1].Mbps >= res.Points[1].Mbps {
		t.Errorf("1 KiB socket buffers did not slow the 64 KiB fabric pingpong (%.1f vs %.1f Mbps)",
			smallRes.Points[1].Mbps, res.Points[1].Mbps)
	}
}

// TestStackPacing: pacing is part of the TCP stack that stack()
// configures, on for GridMPI alone at every tuning level, and a GridMPI
// fabric run, whose stack is replaced by the 4 MB-tuned one, stays paced.
func TestStackPacing(t *testing.T) {
	for _, impl := range mpiimpl.Known {
		for _, tun := range append([]Tuning{MultilevelTuning}, TuningLevels...) {
			e := Experiment{Impl: impl, Tuning: tun, Topology: Grid(1), Workload: PingPongWorkload(tinySizes, 1)}
			if _, tcp := e.stack(); tcp.Pacing != (impl == mpiimpl.GridMPI) {
				t.Errorf("%s at %s: pacing = %v", impl, tun, tcp.Pacing)
			}
		}
	}
	fabric := Experiment{Impl: mpiimpl.GridMPI, Workload: FabricWorkload(3*time.Microsecond, 250e6, time.Microsecond, 0, tinySizes, 1)}
	if _, tcp := fabric.stack(); !tcp.Pacing {
		t.Error("the GridMPI fabric stack is not paced")
	}
}
