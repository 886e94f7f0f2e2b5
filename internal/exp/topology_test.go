package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
	"repro/internal/netsim"
	"repro/internal/perf"
)

// TestTopologyFingerprintBackwardCompat pins the wire encoding to the
// one used before per-site layouts existed: a uniform topology must
// fingerprint exactly as the old {Sites, NodesPerSite} struct did, or
// every pre-PR DiskCache directory would silently turn into misses.
// The expected hashes are computed from hand-written legacy JSON, not
// from the current encoder, so this cannot rot into a tautology.
func TestTopologyFingerprintBackwardCompat(t *testing.T) {
	legacyFingerprint := func(raw string) string {
		sum := sha256.Sum256([]byte(raw))
		return hex.EncodeToString(sum[:8])
	}
	// The legacy marshaling of tinyPingPong(GridMPI, tcp-tuned): struct
	// field order impl, tuning, topology{sites, nodes_per_site}, workload.
	legacy := `{"impl":"GridMPI","tuning":{"tcp":true,"mpi":false},` +
		`"topology":{"sites":["rennes","nancy"],"nodes_per_site":1},` +
		`"workload":{"kind":"pingpong","sizes":[1024,65536],"reps":3}}`
	if got, want := tinyPingPong(mpiimpl.GridMPI, Tuning{TCP: true}).Fingerprint(), legacyFingerprint(legacy); got != want {
		t.Errorf("uniform-topology fingerprint = %s, want legacy %s", got, want)
	}
	// A zero topology (ray2mesh/fabric-style experiments) marshaled as
	// {"sites":null,"nodes_per_site":0}.
	legacyRay := `{"impl":"MPICH2","tuning":{"tcp":false,"mpi":false},` +
		`"topology":{"sites":null,"nodes_per_site":0},` +
		`"workload":{"kind":"ray2mesh","scale":0.05,"master":"rennes"}}`
	rayExp := Experiment{Impl: mpiimpl.MPICH2, Workload: Ray2MeshWorkload(grid5000.Rennes, 0.05)}
	if got, want := rayExp.Fingerprint(), legacyFingerprint(legacyRay); got != want {
		t.Errorf("zero-topology fingerprint = %s, want legacy %s", got, want)
	}
}

// TestTopologyEncodingEquivalences: the new spellings that mean the same
// testbed share a fingerprint, and the ones that do not, do not.
func TestTopologyEncodingEquivalences(t *testing.T) {
	base := tinyPingPong(mpiimpl.GridMPI, Tuning{})
	// A uniform Asym layout is the same topology as Grid.
	asUniform := base
	asUniform.Topology = Asym(Site(grid5000.Rennes, 1), Site(grid5000.Nancy, 1))
	if base.Fingerprint() != asUniform.Fingerprint() {
		t.Error("Asym(rennes×1, nancy×1) fingerprints differently from Grid(1)")
	}
	// Explicit block placement is the zero placement.
	blocked := base
	blocked.Topology.Placement = PlaceBlock
	if base.Fingerprint() != blocked.Fingerprint() {
		t.Error("explicit block placement fingerprints differently from the default")
	}
	// Round-robin is a different experiment.
	rr := base
	rr.Topology.Placement = PlaceRoundRobin
	if base.Fingerprint() == rr.Fingerprint() {
		t.Error("round-robin placement shares the block fingerprint")
	}
	// An asymmetric layout is a different experiment.
	asym := base
	asym.Topology = Asym(Site(grid5000.Rennes, 2), Site(grid5000.Nancy, 1))
	if base.Fingerprint() == asym.Fingerprint() {
		t.Error("asymmetric layout shares the uniform fingerprint")
	}
	// Round-trip: both encodings unmarshal to the same topology.
	for _, raw := range []string{
		`{"sites":["rennes","nancy"],"nodes_per_site":2}`,
		`{"layout":[{"name":"rennes","nodes":2},{"name":"nancy","nodes":2}]}`,
	} {
		var topo Topology
		if err := json.Unmarshal([]byte(raw), &topo); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if topo.String() != Grid(2).String() {
			t.Errorf("unmarshal %s = %s, want %s", raw, topo, Grid(2))
		}
		blob, err := json.Marshal(topo)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != `{"sites":["rennes","nancy"],"nodes_per_site":2}` {
			t.Errorf("canonical re-marshal of %s = %s", raw, blob)
		}
	}
}

// TestPrePRDiskCacheServesHits replays experiments against a DiskCache
// directory written by the pre-redesign code (testdata, generated before
// the Topology change): every one must be served from disk, proving old
// cache directories survive the API redesign.
func TestPrePRDiskCacheServesHits(t *testing.T) {
	src := filepath.Join("testdata", "prepr-cache")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	// Copy to a temp dir: a miss would re-run and overwrite testdata.
	dir := t.TempDir()
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerStore(2, store)

	// The exact experiment set the pre-PR capture ran (see
	// testdata/prepr-cache): the pingpong matrix plus one experiment per
	// workload kind and override axis.
	sizes := perf.PowersOfTwoSizes(1<<10, 64<<10)
	var exps []Experiment
	for _, impl := range []string{mpiimpl.RawTCP, mpiimpl.GridMPI} {
		for _, tun := range []Tuning{{}, {TCP: true}} {
			exps = append(exps, Experiment{
				Impl: impl, Tuning: tun, Topology: Grid(1),
				Workload: PingPongWorkload(sizes, 3),
			})
		}
	}
	exps = append(exps,
		Experiment{Impl: mpiimpl.MPICH2, Tuning: Tuning{TCP: true},
			Topology: Grid(2), Workload: NPBWorkload("EP", 0.02)},
		Experiment{Impl: mpiimpl.MPICH2, Tuning: Tuning{TCP: true},
			Topology: Cluster(4), Workload: NPBWorkload("CG", 0)},
		Experiment{Impl: mpiimpl.GridMPI, Tuning: Tuning{TCP: true},
			Topology: Grid(2), Workload: PatternWorkload("bcast", 4<<10, 3)},
		Experiment{Impl: mpiimpl.MPICH2, Tuning: Tuning{TCP: true},
			Topology: Ray2MeshTopology(), Workload: Ray2MeshWorkload(grid5000.Rennes, 0.01)},
		Experiment{Impl: mpiimpl.MPICH2, Tuning: Tuning{TCP: true},
			Topology: Grid(1), Workload: PingPongWorkload([]int{512 << 10}, 3), EagerThreshold: 1 << 20},
		Experiment{Impl: mpiimpl.RawTCP, Tuning: Tuning{TCP: true},
			Topology: Grid(1), Workload: PingPongWorkload([]int{64 << 20}, 2), SocketBuffer: 1 << 20},
	)
	if len(exps) != len(entries) {
		t.Fatalf("test drift: %d experiments vs %d cached entries", len(exps), len(entries))
	}
	for _, res := range r.RunAll(exps) {
		if res.Err != "" {
			t.Fatalf("%s: %s", res.Exp.Name(), res.Err)
		}
	}
	stats := r.CacheStats()
	if stats.Computed != 0 || stats.Disk != int64(len(exps)) {
		t.Errorf("pre-PR cache served %d/%d from disk (%d recomputed), want 100%% hits",
			stats.Disk, len(exps), stats.Computed)
	}
}

// TestTopologyValidate: malformed layouts come back as errors from
// Build/Validate, never as a mid-run panic.
func TestTopologyValidate(t *testing.T) {
	cases := map[string]Topology{
		"empty":              {},
		"unknown site":       Asym(Site("paris", 2)),
		"zero nodes":         Asym(Site(grid5000.Rennes, 0)),
		"duplicate site":     Asym(Site(grid5000.Rennes, 2), Site(grid5000.Rennes, 2)),
		"bad placement":      {Layout: []SiteSpec{{grid5000.Rennes, 2}}, Placement: "scatter"},
		"master not in set":  {Layout: []SiteSpec{{grid5000.Rennes, 2}}, Placement: PlaceMasterOn(grid5000.Nancy)},
		"zero stride":        {Layout: []SiteSpec{{grid5000.Rennes, 2}}, Placement: PlaceStrided(0)},
		"bad stride":         {Layout: []SiteSpec{{grid5000.Rennes, 2}}, Placement: "strided:two"},
		"negative stride":    {Layout: []SiteSpec{{grid5000.Rennes, 2}}, Placement: "strided:-3"},
		"negative WAN delay": {Layout: []SiteSpec{{grid5000.Rennes, 1}, {grid5000.Nancy, 1}}, WANOneWay: -time.Millisecond},
		"negative WAN rate":  {Layout: []SiteSpec{{grid5000.Rennes, 1}, {grid5000.Nancy, 1}}, WANRate: -1e8},
		"sub-byte WAN rate":  {Layout: []SiteSpec{{grid5000.Rennes, 1}, {grid5000.Nancy, 1}}, WANRate: 1e-300},
	}
	for name, topo := range cases {
		if err := topo.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %s", name, topo)
		}
		if _, err := topo.Build(); err == nil {
			t.Errorf("%s: Build accepted %s", name, topo)
		}
	}
	if _, err := Asym(Site(grid5000.Rennes, 8), Site(grid5000.Nancy, 4), Site(grid5000.Sophia, 4)).Build(); err != nil {
		t.Errorf("3-site asymmetric layout rejected: %v", err)
	}
}

// TestEvenSplit: the NP-vs-layout divisibility check that replaced
// npb.Run's ad-hoc odd-NP rejection.
func TestEvenSplit(t *testing.T) {
	topo, err := EvenSplit(16, grid5000.Rennes, grid5000.Nancy)
	if err != nil || topo.NP() != 16 || len(topo.Layout) != 2 || topo.Layout[1].Nodes != 8 {
		t.Fatalf("EvenSplit(16, 2 sites) = %s, %v", topo, err)
	}
	if _, err := EvenSplit(5, grid5000.Rennes, grid5000.Nancy); err == nil {
		t.Error("odd NP across two sites accepted")
	}
	if _, err := EvenSplit(0, grid5000.Rennes); err == nil {
		t.Error("NP=0 accepted")
	}
	if _, err := EvenSplit(4); err == nil {
		t.Error("no sites accepted")
	}
}

// TestParseLayout covers the CLI layout syntax.
func TestParseLayout(t *testing.T) {
	topo, err := ParseLayout("rennes:8+nancy:4+sophia:4")
	if err != nil {
		t.Fatal(err)
	}
	if topo.NP() != 16 || topo.Layout[0] != Site("rennes", 8) || topo.Layout[2] != Site("sophia", 4) {
		t.Errorf("parsed layout = %s", topo)
	}
	if topo2, err := ParseLayout("rennes+nancy"); err != nil || topo2.NP() != 2 {
		t.Errorf("countless layout = %s, %v", topo2, err)
	}
	for _, bad := range []string{"", "rennes:x", "paris:4", "rennes:0"} {
		if _, err := ParseLayout(bad); err == nil {
			t.Errorf("ParseLayout(%q) accepted", bad)
		}
	}
}

// TestRankHostsPlacements: the placement policies produce the documented
// rank→host mappings.
func TestRankHostsPlacements(t *testing.T) {
	topo := Asym(Site(grid5000.Rennes, 2), Site(grid5000.Nancy, 1), Site(grid5000.Sophia, 2))
	net, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	names := func(p Placement) []string {
		topo.Placement = p
		hosts := topo.RankHosts(net)
		out := make([]string, len(hosts))
		for i, h := range hosts {
			out[i] = h.Name
		}
		return out
	}
	equal := func(got, want []string) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if got := names(""); !equal(got, []string{"rennes-1", "rennes-2", "nancy-1", "sophia-1", "sophia-2"}) {
		t.Errorf("block placement = %v", got)
	}
	if got := names(PlaceRoundRobin); !equal(got, []string{"rennes-1", "nancy-1", "sophia-1", "rennes-2", "sophia-2"}) {
		t.Errorf("round-robin placement = %v", got)
	}
	if got := names(PlaceMasterOn(grid5000.Sophia)); !equal(got, []string{"sophia-1", "sophia-2", "rennes-1", "rennes-2", "nancy-1"}) {
		t.Errorf("master-on-sophia placement = %v", got)
	}
	// strided:1 deals one host per site per rotation — round-robin.
	if got := names(PlaceStrided(1)); !equal(got, names(PlaceRoundRobin)) {
		t.Errorf("strided:1 placement = %v, want the round-robin order", got)
	}

	// On an asymmetric layout the stride is visible: two consecutive
	// ranks per site before rotating, remainders dealt in later passes.
	wide := Asym(Site(grid5000.Rennes, 4), Site(grid5000.Nancy, 2))
	wideNet, err := wide.Build()
	if err != nil {
		t.Fatal(err)
	}
	wide.Placement = PlaceStrided(2)
	hosts := wide.RankHosts(wideNet)
	got := make([]string, len(hosts))
	for i, h := range hosts {
		got[i] = h.Name
	}
	if want := []string{"rennes-1", "rennes-2", "nancy-1", "nancy-2", "rennes-3", "rennes-4"}; !equal(got, want) {
		t.Errorf("strided:2 placement = %v, want %v", got, want)
	}
}

// TestStridedPlacementFingerprints: the stride is an experiment axis —
// each k fingerprints separately, and the frozen block/round-robin
// fingerprints are untouched by the new grammar.
func TestStridedPlacementFingerprints(t *testing.T) {
	base := tinyPingPong(mpiimpl.MPICH2, Tuning{})
	base.Topology = Asym(Site(grid5000.Rennes, 4), Site(grid5000.Nancy, 2))
	fps := map[string]bool{}
	for _, p := range []Placement{PlaceBlock, PlaceRoundRobin, PlaceStrided(1), PlaceStrided(2), PlaceStrided(3)} {
		e := base
		e.Topology.Placement = p
		fps[e.Fingerprint()] = true
	}
	if len(fps) != 5 {
		t.Errorf("got %d distinct fingerprints across 5 placements, want 5", len(fps))
	}
}

// TestPlacementReachesSimulation: moving the broadcast root across the
// WAN via PlaceMasterOn changes the measured pattern time — placement is
// an experiment axis, not a label.
func TestPlacementReachesSimulation(t *testing.T) {
	base := Experiment{
		Impl:     mpiimpl.MPICH2,
		Tuning:   Tuning{TCP: true},
		Topology: Asym(Site(grid5000.Rennes, 4), Site(grid5000.Nancy, 1)),
		Workload: PatternWorkload("bcast", 256<<10, 3),
	}
	moved := base
	moved.Topology.Placement = PlaceMasterOn(grid5000.Nancy)
	a, b := Run(base), Run(moved)
	if a.Err != "" || b.Err != "" {
		t.Fatalf("errs: %q, %q", a.Err, b.Err)
	}
	// Rooting the bcast on the 1-node Nancy side forces 4 of 4 transfers
	// across the WAN instead of 1: strictly slower.
	if b.Elapsed <= a.Elapsed {
		t.Errorf("bcast rooted on nancy (%v) not slower than rennes root (%v)", b.Elapsed, a.Elapsed)
	}
	// Round-robin on a symmetric grid interleaves sites: the ring pattern
	// crosses the WAN at every hop instead of twice.
	ringBlock := Experiment{
		Impl: mpiimpl.MPICH2, Tuning: Tuning{TCP: true},
		Topology: Grid(2), Workload: PatternWorkload("ring", 64<<10, 2),
	}
	ringRR := ringBlock
	ringRR.Topology.Placement = PlaceRoundRobin
	rb, rr := Run(ringBlock), Run(ringRR)
	if rb.Err != "" || rr.Err != "" {
		t.Fatalf("ring errs: %q, %q", rb.Err, rr.Err)
	}
	if rr.Census.WANSends <= rb.Census.WANSends {
		t.Errorf("round-robin ring WAN sends (%d) not above block (%d)", rr.Census.WANSends, rb.Census.WANSends)
	}
}

// TestAsymmetricWorkloadsEndToEnd is the acceptance scenario: a 3-site
// asymmetric topology (Rennes×8 + Nancy×4 + Sophia×4) runs NPB,
// pingpong and ray2mesh through exp.Run.
func TestAsymmetricWorkloadsEndToEnd(t *testing.T) {
	topo := Asym(Site(grid5000.Rennes, 8), Site(grid5000.Nancy, 4), Site(grid5000.Sophia, 4))

	npbRes := Run(Experiment{Impl: mpiimpl.GridMPI, Tuning: Tuning{TCP: true},
		Topology: topo, Workload: NPBWorkload("CG", 0.02)})
	if npbRes.Err != "" || npbRes.DNF || npbRes.Census.P2PSends == 0 {
		t.Errorf("asymmetric NPB: err=%q dnf=%v p2p=%d", npbRes.Err, npbRes.DNF, npbRes.Census.P2PSends)
	}

	ppRes := Run(Experiment{Impl: mpiimpl.GridMPI, Tuning: Tuning{TCP: true},
		Topology: topo, Workload: PingPongWorkload([]int{1 << 10, 64 << 10}, 3)})
	if ppRes.Err != "" || len(ppRes.Points) != 2 {
		t.Errorf("asymmetric pingpong: err=%q points=%d", ppRes.Err, len(ppRes.Points))
	}
	// The endpoints straddle the Rennes–Nancy WAN: the RTT must dwarf a
	// cluster-local pingpong's.
	local := Run(Experiment{Impl: mpiimpl.GridMPI, Tuning: Tuning{TCP: true},
		Topology: Cluster(2), Workload: PingPongWorkload([]int{1 << 10}, 3)})
	if ppRes.Points[0].MinRTT < 10*local.Points[0].MinRTT {
		t.Errorf("asymmetric pingpong RTT %v does not look like a WAN pair (local %v)",
			ppRes.Points[0].MinRTT, local.Points[0].MinRTT)
	}

	// 0.05 = 50 chunks: enough self-scheduling rounds that every one of
	// the 16 slaves gets fed and per-node speed differences show.
	rayRes := Run(Experiment{Impl: mpiimpl.MPICH2, Tuning: Tuning{TCP: true},
		Topology: topo, Workload: Ray2MeshWorkload(grid5000.Rennes, 0.05)})
	if rayRes.Err != "" {
		t.Fatalf("asymmetric ray2mesh: %s", rayRes.Err)
	}
	if rayRes.Metrics["total_rays"] != 50000 {
		t.Errorf("asymmetric ray2mesh rays = %g, want 50000", rayRes.Metrics["total_rays"])
	}
	for _, site := range []string{grid5000.Rennes, grid5000.Nancy, grid5000.Sophia} {
		if rayRes.Metrics["rays_per_node_"+site] <= 0 {
			t.Errorf("no rays on %s", site)
		}
	}
	// Sophia's faster nodes out-trace Nancy's per node, as in Table 6.
	if rayRes.Metrics["rays_per_node_"+grid5000.Sophia] <= rayRes.Metrics["rays_per_node_"+grid5000.Nancy] {
		t.Errorf("sophia rays/node (%g) not above nancy (%g)",
			rayRes.Metrics["rays_per_node_"+grid5000.Sophia], rayRes.Metrics["rays_per_node_"+grid5000.Nancy])
	}
	// The asymmetric layout's fingerprint is distinct and stable.
	if !strings.Contains(Experiment{Topology: topo}.Name(), "rennes:8+nancy:4+sophia:4") {
		t.Errorf("asymmetric topology label = %s", topo)
	}
}

// TestWANOverridesOnAsymmetricLayouts: the WAN override path builds
// per-site node counts too.
func TestWANOverridesOnAsymmetricLayouts(t *testing.T) {
	topo := Asym(Site(grid5000.Rennes, 2), Site(grid5000.Nancy, 1))
	topo.WANOneWay = 40 * time.Millisecond
	net, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(net.SiteHosts(grid5000.Rennes)); got != 2 {
		t.Errorf("rennes hosts = %d, want 2", got)
	}
	p := net.Path(net.Host("rennes-1"), net.Host("nancy-1"))
	if p.OneWay != 40*time.Millisecond {
		t.Errorf("override one-way = %v", p.OneWay)
	}
}

// TestTopologyPathsFollowSites pins the route rule of every testbed: a
// host reaches itself over a private loopback link, a host of its own
// site across the two NICs at the site's delay, and a host of another
// site across its NIC, its site's uplink, the other site's uplink and
// the other NIC, at the WAN delay. Routes are built once per network.
func TestTopologyPathsFollowSites(t *testing.T) {
	asym, err := ParseLayout("rennes:3+nancy:2+sophia:2")
	if err != nil {
		t.Fatal(err)
	}
	override := Grid(1)
	override.WANOneWay = 25 * time.Millisecond
	override.WANRate = 1.25e8
	fixedWAN := func(string, string) time.Duration { return override.WANOneWay }
	fabric := Experiment{Impl: mpiimpl.MPICH2, Workload: FabricWorkload(3*time.Microsecond, 250e6, time.Microsecond, 0, []int{1}, 1)}
	cases := []struct {
		name    string
		build   func() (*netsim.Network, error)
		hosts   int
		intra   time.Duration
		wan     func(a, b string) time.Duration
		uplinks bool
	}{
		{"cluster", Cluster(3).Build, 3, grid5000.IntraClusterOneWay, grid5000.OneWay, true},
		{"grid", Grid(2).Build, 4, grid5000.IntraClusterOneWay, grid5000.OneWay, true},
		{"3site", asym.Build, 7, grid5000.IntraClusterOneWay, grid5000.OneWay, true},
		{"4site", Asym(Site(grid5000.Rennes, 3), Site(grid5000.Nancy, 2), Site(grid5000.Sophia, 2), Site(grid5000.Toulouse, 1)).Build, 8, grid5000.IntraClusterOneWay, grid5000.OneWay, true},
		{"wan override", override.Build, 2, grid5000.IntraClusterOneWay, fixedWAN, true},
		{"fabric", func() (*netsim.Network, error) {
			net, _, err := fabric.testbed()
			return net, err
		}, 2, 3 * time.Microsecond, nil, false},
	}
	for _, c := range cases {
		net, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := len(net.Hosts()); got != c.hosts {
			t.Errorf("%s: %d hosts, want %d", c.name, got, c.hosts)
		}
		for _, a := range net.Hosts() {
			for _, b := range net.Hosts() {
				p := net.Path(a, b)
				if net.Path(a, b) != p {
					t.Errorf("%s: second Path(%s, %s) built a new path", c.name, a, b)
				}
				if p.Src != a || p.Dst != b {
					t.Errorf("%s: Path(%s, %s) runs %s", c.name, a, b, p)
				}
				var owd time.Duration
				var want []*netsim.Link
				switch {
				case a == b:
					owd = netsim.LoopbackDelay
					if len(p.Links) != 1 || p.Links[0].Name != a.Name+":lo" || p.Links[0].Rate != netsim.LoopbackRate {
						t.Errorf("%s: Path(%s, %s) = %v, want the loopback", c.name, a, b, linkNames(p.Links))
					}
					want = p.Links
				case a.Site == b.Site:
					owd = c.intra
					want = []*netsim.Link{a.NIC, b.NICIn}
				default:
					owd = c.wan(a.Site, b.Site)
					want = []*netsim.Link{a.NIC}
					if out, _, ok := net.Uplink(a.Site); ok {
						want = append(want, out)
					}
					if _, in, ok := net.Uplink(b.Site); ok {
						want = append(want, in)
					}
					want = append(want, b.NICIn)
				}
				if p.OneWay != owd {
					t.Errorf("%s: Path(%s, %s) one-way = %v, want %v", c.name, a, b, p.OneWay, owd)
				}
				if !slices.Equal(p.Links, want) {
					t.Errorf("%s: Path(%s, %s) crosses %v, want %v", c.name, a, b, linkNames(p.Links), linkNames(want))
				}
			}
			if a.NIC.Name != a.Name+":nic-tx" || a.NICIn.Name != a.Name+":nic-rx" {
				t.Errorf("%s: %s has NICs %s, %s", c.name, a, a.NIC.Name, a.NICIn.Name)
			}
			out, in, ok := net.Uplink(a.Site)
			if ok != c.uplinks {
				t.Errorf("%s: site %s has an uplink: %v, want %v", c.name, a.Site, ok, c.uplinks)
			} else if ok && (out.Name != a.Site+":uplink-out" || in.Name != a.Site+":uplink-in") {
				t.Errorf("%s: site %s has uplinks %s, %s", c.name, a.Site, out.Name, in.Name)
			}
		}
	}
}

// linkNames lists the names of a chain of links.
func linkNames(links []*netsim.Link) []string {
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.Name
	}
	return names
}
