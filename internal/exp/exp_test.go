package exp

import (
	"bytes"
	"maps"
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
	// Threshold axis defaults to a single no-override pass.
	s.EagerThresholds = []int{1 << 20, 32 << 20}
	if got := len(s.Experiments()); got != 24 {
		t.Fatalf("threshold axis expansion = %d, want 24", got)
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
	// Zero-value aliases normalize to one key: NPB at Scale 0 ≡ 1.0 and
	// Timeout 0 ≡ one hour.
	full := Experiment{Impl: mpiimpl.MPICH2, Topology: Grid(2), Workload: NPBWorkload("EP", 1)}
	zero := Experiment{Impl: mpiimpl.MPICH2, Topology: Grid(2), Workload: NPBWorkload("EP", 0)}
	hour := full
	hour.Workload.Timeout = time.Hour
	if full.Fingerprint() != zero.Fingerprint() || full.Fingerprint() != hour.Fingerprint() {
		t.Error("zero-value workload aliases fingerprint differently")
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

func TestTopologyBuildMatchesGrid5000(t *testing.T) {
	net, err := Grid(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	ref := grid5000.Build(2, grid5000.Rennes, grid5000.Nancy)
	if len(net.Hosts()) != len(ref.Hosts()) {
		t.Fatalf("hosts = %d, want %d", len(net.Hosts()), len(ref.Hosts()))
	}
	p := net.Path(net.Host("rennes-1"), net.Host("nancy-1"))
	rp := ref.Path(ref.Host("rennes-1"), ref.Host("nancy-1"))
	if p.OneWay != rp.OneWay {
		t.Errorf("WAN one-way = %v, want %v", p.OneWay, rp.OneWay)
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
	// An unknown site must fail like grid5000.Build does, not default to
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
		// ray2mesh needs its master site in the layout, and two slaves
		// for the merge phase.
		{Impl: mpiimpl.MPICH2, Topology: Asym(Site(grid5000.Nancy, 2), Site(grid5000.Sophia, 2)), Workload: Ray2MeshWorkload(grid5000.Rennes, 0.05)},
		{Impl: mpiimpl.MPICH2, Topology: Cluster(1), Workload: Ray2MeshWorkload(grid5000.Rennes, 0.05)},
		{Impl: mpiimpl.MPICH2, Workload: Ray2MeshWorkload(grid5000.Rennes, -0.05)},
	}
	for _, e := range bad {
		if res := Run(e); res.Err == "" {
			t.Errorf("%s accepted, want Err", e.Name())
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
	if _, err := ParseSize("12q"); err == nil {
		t.Error("ParseSize accepted garbage")
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
