package exp

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/grid5000"
	"repro/internal/netsim"
	"repro/internal/tcpsim"
)

// SiteSpec is one site's contribution to a topology: a Grid'5000 cluster
// name and how many nodes it provides.
type SiteSpec struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
}

// Site builds one SiteSpec (sugar for Asym call sites).
func Site(name string, nodes int) SiteSpec { return SiteSpec{Name: name, Nodes: nodes} }

// Placement is the policy mapping ranks onto a topology's hosts. The
// zero value means PlaceBlock; the rank→host mapping used to be
// improvised per workload, now every all-hosts workload asks the
// topology for it.
type Placement string

const (
	// PlaceBlock fills sites one after another in layout order: ranks
	// 0..n₀-1 on the first site, the next n₁ on the second, and so on
	// (the historical site-major order).
	PlaceBlock Placement = "block"
	// PlaceRoundRobin deals ranks across the sites one node at a time:
	// rank 0 on the first site's first node, rank 1 on the second
	// site's, wrapping until every node is used (sites that run out of
	// nodes drop out of the rotation).
	PlaceRoundRobin Placement = "round-robin"
)

// placeMasterPrefix tags master-on-site placements: "master:<site>".
const placeMasterPrefix = "master:"

// placeStridedPrefix tags strided placements: "strided:<k>".
const placeStridedPrefix = "strided:"

// PlaceStrided deals ranks across the sites k nodes at a time: the
// first site's first k nodes, then the second site's first k, wrapping
// until every node is used (sites that run out drop out of the
// rotation). strided:1 deals like round-robin; larger strides keep
// k-rank neighborhoods intra-site while still interleaving sites —
// the block-cyclic shape process-grid workloads ask for.
func PlaceStrided(stride int) Placement {
	return Placement(fmt.Sprintf("%s%d", placeStridedPrefix, stride))
}

// strideOf extracts the stride of a strided placement (0 otherwise).
func (p Placement) strideOf() int {
	s, ok := strings.CutPrefix(string(p), placeStridedPrefix)
	if !ok {
		return 0
	}
	k, err := strconv.Atoi(s)
	if err != nil || k < 1 {
		return 0
	}
	return k
}

// PlaceMasterOn puts rank 0 on the named site by rotating the layout so
// that site leads; the remaining sites keep block order. Useful when a
// workload's root rank (broadcast source, NPB rank 0) must live on a
// specific cluster.
func PlaceMasterOn(site string) Placement { return Placement(placeMasterPrefix + site) }

// masterSite extracts the site of a master-on placement ("" otherwise).
func (p Placement) masterSite() string {
	if strings.HasPrefix(string(p), placeMasterPrefix) {
		return strings.TrimPrefix(string(p), placeMasterPrefix)
	}
	return ""
}

// normalized resolves the zero-value alias: "" means PlaceBlock, and
// PlaceBlock marshals back to "" so both spellings share a fingerprint.
func (p Placement) normalized() Placement {
	if p == PlaceBlock {
		return ""
	}
	return p
}

func (p Placement) valid(layout []SiteSpec) error {
	switch p.normalized() {
	case "", PlaceRoundRobin:
		return nil
	}
	if site := p.masterSite(); site != "" {
		for _, s := range layout {
			if s.Name == site {
				return nil
			}
		}
		return fmt.Errorf("exp: placement %q names a site outside the layout", p)
	}
	if strings.HasPrefix(string(p), placeStridedPrefix) {
		if p.strideOf() < 1 {
			return fmt.Errorf("exp: bad placement %q (want strided:<k> with k ≥ 1)", p)
		}
		return nil
	}
	return fmt.Errorf("exp: unknown placement %q (have block, round-robin, strided:<k>, master:<site>)", p)
}

// Topology describes the simulated testbed: which sites participate and
// how many nodes each contributes (the Layout), how ranks map onto those
// nodes (the Placement), and optional overrides of the WAN
// characteristics (zero values keep the published Grid'5000 numbers).
type Topology struct {
	// Layout lists the participating sites in order. Uniform layouts
	// (every site the same node count) keep the historical wire encoding
	// {"sites":[...],"nodes_per_site":n}, so fingerprints — and therefore
	// DiskCache entries — written before per-site layouts existed stay
	// valid.
	Layout []SiteSpec
	// Placement maps ranks to hosts; zero means PlaceBlock.
	Placement Placement
	// WANOneWay overrides the inter-site one-way delay for every site pair
	// (0 = the published per-pair Grid'5000 delays).
	WANOneWay time.Duration
	// WANRate overrides the site uplink rate in bytes/second (0 = 10 GbE).
	WANRate float64
}

// Cluster is a single-site topology with n nodes in Rennes.
func Cluster(nodes int) Topology {
	return Topology{Layout: []SiteSpec{{grid5000.Rennes, nodes}}}
}

// Grid is the paper's two-site Rennes–Nancy topology with n nodes per
// site across the 11.6 ms RTT WAN.
func Grid(nodesPerSite int) Topology {
	return Topology{Layout: []SiteSpec{
		{grid5000.Rennes, nodesPerSite},
		{grid5000.Nancy, nodesPerSite},
	}}
}

// Asym assembles a topology from explicit per-site node counts, e.g.
// Asym(Site("rennes", 8), Site("nancy", 4), Site("sophia", 4)).
func Asym(sites ...SiteSpec) Topology {
	return Topology{Layout: append([]SiteSpec(nil), sites...)}
}

// EvenSplit distributes np ranks evenly across the named sites,
// validating divisibility up front — the check that used to live ad hoc
// in npb.Run (an odd NP across two clusters would otherwise silently
// drop a rank and simulate a malformed world).
func EvenSplit(np int, sites ...string) (Topology, error) {
	if len(sites) == 0 {
		return Topology{}, fmt.Errorf("exp: EvenSplit needs at least one site")
	}
	if np < 1 {
		return Topology{}, fmt.Errorf("exp: NP = %d, need at least one rank", np)
	}
	if np%len(sites) != 0 {
		return Topology{}, fmt.Errorf("exp: NP = %d cannot split evenly across %d sites", np, len(sites))
	}
	layout := make([]SiteSpec, len(sites))
	for i, name := range sites {
		layout[i] = SiteSpec{Name: name, Nodes: np / len(sites)}
	}
	return Topology{Layout: layout}, nil
}

// ParseLayout parses a topology description of the form
// "rennes:8+nancy:4+sophia:4" (site:nodes pairs joined by '+'); a pair
// without an explicit count contributes one node.
func ParseLayout(s string) (Topology, error) {
	var layout []SiteSpec
	for _, tok := range strings.Split(s, "+") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		name, countStr, hasCount := strings.Cut(tok, ":")
		nodes := 1
		if hasCount {
			n, err := strconv.Atoi(strings.TrimSpace(countStr))
			if err != nil {
				return Topology{}, fmt.Errorf("exp: bad node count in layout %q: %w", tok, err)
			}
			nodes = n
		}
		layout = append(layout, SiteSpec{Name: strings.TrimSpace(name), Nodes: nodes})
	}
	if len(layout) == 0 {
		return Topology{}, fmt.Errorf("exp: empty layout %q", s)
	}
	t := Topology{Layout: layout}
	return t, t.Validate()
}

// IsZero reports a completely unset topology: the fabric workload
// requires it, and ray2mesh resolves it to Ray2MeshTopology() at run
// time.
func (t Topology) IsZero() bool {
	return len(t.Layout) == 0 && t.Placement.normalized() == "" && t.WANOneWay == 0 && t.WANRate == 0
}

// NP is the total rank count of an all-hosts workload on this topology.
func (t Topology) NP() int {
	np := 0
	for _, s := range t.Layout {
		np += s.Nodes
	}
	return np
}

// Sites lists the layout's site names in order.
func (t Topology) Sites() []string {
	names := make([]string, len(t.Layout))
	for i, s := range t.Layout {
		names[i] = s.Name
	}
	return names
}

// uniformNodes reports whether every site contributes the same node
// count (vacuously 0 for an empty layout), the shape the historical
// encoding can express.
func (t Topology) uniformNodes() (int, bool) {
	if len(t.Layout) == 0 {
		return 0, true
	}
	n := t.Layout[0].Nodes
	for _, s := range t.Layout[1:] {
		if s.Nodes != n {
			return 0, false
		}
	}
	return n, true
}

// String is the topology's one-line label ("rennes+nancy x8", or
// per-site counts for asymmetric layouts, plus any placement and WAN
// overrides). Presentation only; the cache key is the JSON fingerprint.
func (t Topology) String() string {
	var s string
	if n, ok := t.uniformNodes(); ok {
		s = fmt.Sprintf("%s x%d", strings.Join(t.Sites(), "+"), n)
	} else {
		parts := make([]string, len(t.Layout))
		for i, site := range t.Layout {
			parts[i] = fmt.Sprintf("%s:%d", site.Name, site.Nodes)
		}
		s = strings.Join(parts, "+")
	}
	if p := t.Placement.normalized(); p != "" {
		s += " place=" + string(p)
	}
	if t.WANOneWay != 0 {
		s += fmt.Sprintf(" owd=%v", t.WANOneWay)
	}
	if t.WANRate != 0 {
		s += fmt.Sprintf(" uplink=%.0fMB/s", t.WANRate/1e6)
	}
	return s
}

// topologyWire is the JSON schema of a Topology. Uniform layouts are
// encoded through Sites/NodesPerSite — byte-identical to the encoding
// used before per-site layouts existed, which is what keeps old
// fingerprints (and DiskCache directories) valid — and asymmetric
// layouts through Layout. Placement is omitted when default.
type topologyWire struct {
	Sites        []string      `json:"sites,omitempty"`
	NodesPerSite *int          `json:"nodes_per_site,omitempty"`
	Layout       []SiteSpec    `json:"layout,omitempty"`
	Placement    Placement     `json:"placement,omitempty"`
	WANOneWay    time.Duration `json:"wan_one_way,omitempty"`
	WANRate      float64       `json:"wan_rate,omitempty"`
}

// MarshalJSON emits the canonical encoding (see topologyWire).
func (t Topology) MarshalJSON() ([]byte, error) {
	w := topologyWire{
		Placement: t.Placement.normalized(),
		WANOneWay: t.WANOneWay,
		WANRate:   t.WANRate,
	}
	if n, ok := t.uniformNodes(); ok {
		// The legacy encoding spells both fields out even when zero:
		// {"sites":null,"nodes_per_site":0} is the historical empty
		// topology, and changing its bytes would orphan every cached
		// ray2mesh/fabric experiment (hence nil, not [], for no sites).
		if len(t.Layout) > 0 {
			w.Sites = t.Sites()
		}
		w.NodesPerSite = &n
		type legacy struct {
			Sites        []string      `json:"sites"`
			NodesPerSite int           `json:"nodes_per_site"`
			Placement    Placement     `json:"placement,omitempty"`
			WANOneWay    time.Duration `json:"wan_one_way,omitempty"`
			WANRate      float64       `json:"wan_rate,omitempty"`
		}
		return json.Marshal(legacy{
			Sites:        w.Sites,
			NodesPerSite: n,
			Placement:    w.Placement,
			WANOneWay:    w.WANOneWay,
			WANRate:      w.WANRate,
		})
	}
	w.Layout = t.Layout
	return json.Marshal(w)
}

// UnmarshalJSON accepts both encodings: the legacy uniform
// Sites/NodesPerSite pair and the per-site Layout list.
func (t *Topology) UnmarshalJSON(blob []byte) error {
	var w topologyWire
	if err := json.Unmarshal(blob, &w); err != nil {
		return err
	}
	*t = Topology{
		Layout:    w.Layout,
		Placement: w.Placement,
		WANOneWay: w.WANOneWay,
		WANRate:   w.WANRate,
	}
	if len(w.Layout) == 0 && len(w.Sites) > 0 {
		n := 0
		if w.NodesPerSite != nil {
			n = *w.NodesPerSite
		}
		t.Layout = make([]SiteSpec, len(w.Sites))
		for i, name := range w.Sites {
			t.Layout[i] = SiteSpec{Name: name, Nodes: n}
		}
	}
	return nil
}

// Validate checks that the topology can be built: a non-empty layout of
// distinct, known sites with positive node counts, and a recognized
// placement. It returns an error instead of panicking mid-run, so a
// worker pool surfaces a bad topology as Result.Err without relying on
// Run's recover.
func (t Topology) Validate() error {
	if len(t.Layout) == 0 {
		return fmt.Errorf("exp: empty topology")
	}
	seen := make(map[string]bool, len(t.Layout))
	for _, s := range t.Layout {
		if _, ok := grid5000.Lookup(s.Name); !ok {
			return fmt.Errorf("exp: unknown site %q", s.Name)
		}
		if s.Nodes < 1 {
			return fmt.Errorf("exp: site %s contributes %d nodes, need at least 1", s.Name, s.Nodes)
		}
		if seen[s.Name] {
			return fmt.Errorf("exp: site %s appears twice in the layout", s.Name)
		}
		seen[s.Name] = true
	}
	return t.Placement.valid(t.Layout)
}

// Build constructs the network, validating first: unknown sites and
// malformed layouts come back as errors, never as a mid-run panic.
// Standard topologies match grid5000.BuildLayout exactly; WAN overrides
// assemble the same layout with the requested delay/uplink.
func (t Topology) Build() (*netsim.Network, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.WANOneWay == 0 && t.WANRate == 0 {
		layout := make([]grid5000.SiteCount, len(t.Layout))
		for i, s := range t.Layout {
			layout[i] = grid5000.SiteCount{Name: s.Name, Nodes: s.Nodes}
		}
		return grid5000.BuildLayout(layout), nil
	}
	net := netsim.New()
	uplink := t.WANRate
	if uplink == 0 {
		uplink = tcpsim.TenGigabitEthernet
	}
	for _, s := range t.Layout {
		site, _ := grid5000.Lookup(s.Name) // Validate vouched for it
		net.AddSite(s.Name, s.Nodes, site.CPUSpeed, tcpsim.GigabitEthernet, grid5000.IntraClusterOneWay)
		net.SetUplink(s.Name, uplink)
	}
	for i := 0; i < len(t.Layout); i++ {
		for j := i + 1; j < len(t.Layout); j++ {
			owd := t.WANOneWay
			if owd == 0 {
				owd = grid5000.OneWay(t.Layout[i].Name, t.Layout[j].Name)
			}
			net.ConnectSites(t.Layout[i].Name, t.Layout[j].Name, owd)
		}
	}
	return net, nil
}

// RankHosts maps ranks onto the built network's hosts according to the
// Placement policy: RankHosts(net)[i] runs rank i. The network must come
// from Build on the same topology.
func (t Topology) RankHosts(net *netsim.Network) []*netsim.Host {
	perSite := make([][]*netsim.Host, len(t.Layout))
	order := t.Layout
	if master := t.Placement.masterSite(); master != "" {
		// Rotate the layout so the master site leads; each site's hosts
		// stay contiguous in block order after rank 0's site.
		rotated := make([]SiteSpec, 0, len(t.Layout))
		for _, s := range t.Layout {
			if s.Name == master {
				rotated = append(rotated, s)
			}
		}
		for _, s := range t.Layout {
			if s.Name != master {
				rotated = append(rotated, s)
			}
		}
		order = rotated
	}
	for i, s := range order {
		perSite[i] = net.SiteHosts(s.Name)
	}
	var hosts []*netsim.Host
	stride := 0
	if t.Placement.normalized() == PlaceRoundRobin {
		stride = 1
	} else if k := t.Placement.strideOf(); k > 0 {
		stride = k
	}
	if stride > 0 {
		// Deal stride hosts per site per rotation; sites that run out of
		// hosts drop out (round-robin is the stride-1 case).
		next := make([]int, len(perSite))
		for {
			added := false
			for i, siteHosts := range perSite {
				for k := 0; k < stride && next[i] < len(siteHosts); k++ {
					hosts = append(hosts, siteHosts[next[i]])
					next[i]++
					added = true
				}
			}
			if !added {
				return hosts
			}
		}
	}
	for _, siteHosts := range perSite {
		hosts = append(hosts, siteHosts...)
	}
	return hosts
}

// endpointHosts picks the two processes of a two-ended workload
// (pingpong, trace): rank 0's host, and the first host in rank order on
// a different site — the cross-WAN pair on a grid — falling back to the
// second host of a single-site topology.
func (t Topology) endpointHosts(net *netsim.Network) []*netsim.Host {
	hosts := t.RankHosts(net)
	for _, h := range hosts[1:] {
		if h.Site != hosts[0].Site {
			return []*netsim.Host{hosts[0], h}
		}
	}
	return []*netsim.Host{hosts[0], hosts[1]}
}
