// Package netsim models the physical network of a computational grid:
// sites of hosts with NICs, shared links, and host-to-host paths with
// one-way delay and a chain of capacity-constrained links. New builds a
// network in one call from its list of sites; a path follows from its two
// hosts' sites and is built the first time a run asks for it.
//
// Capacity sharing uses a max-min-style approximation suited to flow-level
// TCP simulation: each link tracks how many flows are actively transferring
// through it, and a flow's attainable rate on a path is the minimum over the
// path's links of rate/activeFlows. The tcpsim package samples this share
// once per congestion-window round, so shares adapt as flows come and go.
package netsim

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"
)

// Host is a grid node: a named machine on a site with a relative CPU speed
// and a dedicated NIC link.
type Host struct {
	Name string
	Site string
	// CPUSpeed is the node's relative compute speed; 1.0 is the reference
	// (the paper's Rennes Opteron 248). Application compute times divide
	// by this factor.
	CPUSpeed float64
	// NIC is the transmit side and NICIn the receive side of the host's
	// full-duplex network interface: outgoing flows contend on NIC,
	// incoming flows (incast) on NICIn, and opposite directions never
	// contend with each other.
	NIC   *Link
	NICIn *Link
}

func (h *Host) String() string { return h.Name }

// Link is a shared transmission resource with a fixed raw rate in bytes per
// second. Flows register while actively transferring; the link divides its
// rate evenly among them.
//
// A link can also be taken down by a fault plan: flows that hold it are
// evicted (their registrations voided via the generation counter) and must
// re-register once the link comes back, which NotifyUp signals.
type Link struct {
	Name   string
	Rate   float64 // bytes/second, raw (framing efficiency is applied by tcpsim)
	active int
	// gen counts SetDown(true) transitions. A registration made at gen g is
	// void once gen != g: SetDown zeroes active, so a flow releasing with a
	// stale gen must not decrement again (see ReleaseGen).
	gen       uint32
	down      bool
	extraLoss float64       // injected per-round loss probability
	jitter    time.Duration // injected one-way latency jitter amplitude
	onUp      []func()      // callbacks fired when the link comes back up
}

// Acquire registers one active flow on the link.
func (l *Link) Acquire() { l.active++ }

// Release deregisters one active flow. Releasing an idle link panics, as it
// indicates a flow accounting bug. Fault-driven teardown (the link went down
// while the flow held it) must go through ReleaseGen instead, which the
// generation counter makes idempotent.
func (l *Link) Release() {
	if l.active <= 0 {
		panic(fmt.Sprintf("netsim: release of idle link %s", l.Name))
	}
	l.active--
}

// ReleaseGen deregisters a flow that registered while the link was at
// generation gen. If the link has since gone down (bumping the generation
// and voiding all registrations), the release is a no-op; with a current
// gen it behaves exactly like Release, including the idle-release panic.
func (l *Link) ReleaseGen(gen uint32) {
	if gen != l.gen {
		return
	}
	l.Release()
}

// Gen returns the link's current registration generation.
func (l *Link) Gen() uint32 { return l.gen }

// SetDown changes the link's up/down state. Taking the link down evicts all
// registered flows (active resets to zero and their generation is voided);
// bringing it up fires the callbacks registered with NotifyUp, in
// registration order.
func (l *Link) SetDown(down bool) {
	if down == l.down {
		return
	}
	l.down = down
	if down {
		l.gen++
		l.active = 0
		return
	}
	cbs := l.onUp
	l.onUp = nil
	for _, fn := range cbs {
		fn()
	}
}

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// NotifyUp registers fn to run when the link next comes up. If the link is
// already up, fn runs immediately.
func (l *Link) NotifyUp(fn func()) {
	if !l.down {
		fn()
		return
	}
	l.onUp = append(l.onUp, fn)
}

// SetExtraLoss sets an injected per-round loss probability on the link.
func (l *Link) SetExtraLoss(p float64) { l.extraLoss = p }

// SetJitter sets an injected latency jitter amplitude on the link.
func (l *Link) SetJitter(j time.Duration) { l.jitter = j }

// Active reports the number of flows currently registered.
func (l *Link) Active() int { return l.active }

// Share returns the rate available to one of the currently active flows.
// If no flow is registered it returns the full rate.
func (l *Link) Share() float64 {
	if l.active <= 1 {
		return l.Rate
	}
	return l.Rate / float64(l.active)
}

// Path is a unidirectional route between two hosts.
type Path struct {
	Src, Dst *Host
	// OneWay is the one-way propagation + switching delay, excluding
	// serialization (which depends on the transfer size and is computed by
	// the transport).
	OneWay time.Duration
	// Links is the ordered chain of shared links the path crosses.
	Links []*Link
}

// RTT is the round-trip propagation delay of the path.
func (p *Path) RTT() time.Duration { return 2 * p.OneWay }

// Acquire registers an active flow on every link of the path.
func (p *Path) Acquire() {
	for _, l := range p.Links {
		l.Acquire()
	}
}

// Release deregisters an active flow from every link of the path.
func (p *Path) Release() {
	for _, l := range p.Links {
		l.Release()
	}
}

// AcquireGens registers a flow on every link and appends each link's current
// generation to gens (normally the caller's reused scratch, passed with
// length zero), returning the extended slice. Pair with ReleaseGens so a
// fault taking a link down mid-hold cannot be confused with a double
// release.
func (p *Path) AcquireGens(gens []uint32) []uint32 {
	for _, l := range p.Links {
		l.Acquire()
		gens = append(gens, l.gen)
	}
	return gens
}

// ReleaseGens deregisters a flow that registered with AcquireGens: links
// whose generation moved on (they went down in between) are skipped, the
// rest release strictly. len(gens) must equal len(p.Links).
func (p *Path) ReleaseGens(gens []uint32) {
	for i, l := range p.Links {
		l.ReleaseGen(gens[i])
	}
}

// Down reports whether any link of the path is down.
func (p *Path) Down() bool {
	for _, l := range p.Links {
		if l.down {
			return true
		}
	}
	return false
}

// NotifyUp arranges for fn to run once no link of the path is down. It
// registers on the first down link found; when that one recovers, the check
// repeats until the whole path is clear, then fn runs. If the path is
// already up, fn runs immediately.
func (p *Path) NotifyUp(fn func()) {
	for _, l := range p.Links {
		if l.down {
			l.NotifyUp(func() { p.NotifyUp(fn) })
			return
		}
	}
	fn()
}

// ExtraLoss returns the combined injected loss probability along the path:
// 1 - Π(1 - p_link), the chance at least one lossy link drops the round.
func (p *Path) ExtraLoss() float64 {
	pass := 1.0
	for _, l := range p.Links {
		if l.extraLoss > 0 {
			pass *= 1 - l.extraLoss
		}
	}
	return 1 - pass
}

// Jitter returns the summed injected latency jitter amplitude of the path.
func (p *Path) Jitter() time.Duration {
	var j time.Duration
	for _, l := range p.Links {
		j += l.jitter
	}
	return j
}

// ShareRate returns the current bottleneck fair-share rate (bytes/second)
// for a flow that has already Acquired the path.
func (p *Path) ShareRate() float64 {
	rate := p.Links[0].Share()
	for _, l := range p.Links[1:] {
		if s := l.Share(); s < rate {
			rate = s
		}
	}
	return rate
}

// Bottleneck returns the minimum raw rate along the path.
func (p *Path) Bottleneck() float64 {
	rate := p.Links[0].Rate
	for _, l := range p.Links[1:] {
		if l.Rate < rate {
			rate = l.Rate
		}
	}
	return rate
}

func (p *Path) String() string {
	return fmt.Sprintf("%s->%s owd=%v", p.Src.Name, p.Dst.Name, p.OneWay)
}

// Site describes one cluster of identical hosts behind a non-blocking
// switch, so that a path between two of its hosts crosses only their
// NICs.
type Site struct {
	Name  string
	Nodes int
	// CPUSpeed is the relative compute speed of every host (see Host).
	CPUSpeed float64
	// NICRate is each host's NIC rate per direction, in bytes/s.
	NICRate float64
	// OneWay is the one-way delay between two hosts of the site.
	OneWay time.Duration
	// UplinkRate is the rate per direction, in bytes/s, of the site's
	// shared WAN access, which every path to or from another site
	// crosses. 0 means the site has no uplink.
	UplinkRate float64
}

// Network is a set of sites and their hosts, plus the paths between
// hosts that Path has built so far.
type Network struct {
	hosts   map[string]*Host
	ordered []*Host
	sites   map[string]*site
	// wan gives the one-way delay between two distinct sites.
	wan   func(a, b string) time.Duration
	paths map[[2]*Host]*Path
}

// site is a Site with its hosts and its uplink pair (nil without one).
type site struct {
	Site
	hosts   []*Host
	out, in *Link
}

// New creates the hosts of every site, named <site>-1..n, in site
// order, each with its NIC pair, and each site's uplink pair. wan gives
// the one-way delay between two distinct sites; a nil wan leaves the
// sites unconnected. Site names must be distinct.
func New(sites []Site, wan func(a, b string) time.Duration) *Network {
	total := 0
	for _, s := range sites {
		total += s.Nodes
	}
	n := &Network{
		hosts:   make(map[string]*Host, total),
		ordered: make([]*Host, 0, total),
		sites:   make(map[string]*site, len(sites)),
		wan:     wan,
		paths:   make(map[[2]*Host]*Path),
	}
	for _, s := range sites {
		if _, dup := n.sites[s.Name]; dup {
			panic("netsim: duplicate site " + s.Name)
		}
		st := &site{Site: s}
		if s.UplinkRate != 0 {
			st.out = &Link{Name: s.Name + ":uplink-out", Rate: s.UplinkRate}
			st.in = &Link{Name: s.Name + ":uplink-in", Rate: s.UplinkRate}
		}
		first := len(n.ordered)
		for i := range s.Nodes {
			name := s.Name + "-" + strconv.Itoa(i+1)
			h := &Host{
				Name:     name,
				Site:     s.Name,
				CPUSpeed: s.CPUSpeed,
				NIC:      &Link{Name: name + ":nic-tx", Rate: s.NICRate},
				NICIn:    &Link{Name: name + ":nic-rx", Rate: s.NICRate},
			}
			n.hosts[name] = h
			n.ordered = append(n.ordered, h)
		}
		// Capped, so that appending to SiteHosts' result copies instead
		// of overwriting the next site's hosts.
		st.hosts = n.ordered[first:len(n.ordered):len(n.ordered)]
		n.sites[s.Name] = st
	}
	return n
}

// Host returns the named host, or nil.
func (n *Network) Host(name string) *Host { return n.hosts[name] }

// Hosts returns all hosts, site by site in the order New got the sites.
func (n *Network) Hosts() []*Host { return n.ordered }

// SiteHosts returns the hosts of one site in order, or nil for a site
// the network does not have.
func (n *Network) SiteHosts(name string) []*Host {
	if s := n.sites[name]; s != nil {
		return s.hosts
	}
	return nil
}

// Sites returns the site names, sorted.
func (n *Network) Sites() []string { return slices.Sorted(maps.Keys(n.sites)) }

// Uplink returns the site's WAN access links (egress, ingress), or ok=false
// when the site has no uplink. Fault injection uses it to target "the
// rennes uplink" by name.
func (n *Network) Uplink(name string) (out, in *Link, ok bool) {
	s := n.sites[name]
	if s == nil || s.out == nil {
		return nil, nil, false
	}
	return s.out, s.in, true
}

// LoopbackRate is the byte rate of intra-host communication (shared-memory
// copy speed) and LoopbackDelay its latency.
const (
	LoopbackRate  = 2.5e9
	LoopbackDelay = 5 * time.Microsecond
)

// Path returns the route from a to b, built on the first call for the
// pair and cached. Two processes on one host share a loopback link.
// Within a site the route crosses a's NIC and b's NIC at the site's
// delay; across sites it also crosses the uplink of each site that has
// one, at the WAN delay. Path panics for hosts on unconnected sites.
func (n *Network) Path(a, b *Host) *Path {
	key := [2]*Host{a, b}
	p := n.paths[key]
	if p == nil {
		p = n.route(a, b)
		n.paths[key] = p
	}
	return p
}

func (n *Network) route(a, b *Host) *Path {
	p := &Path{Src: a, Dst: b}
	src, dst := n.sites[a.Site], n.sites[b.Site]
	switch {
	case a == b:
		p.OneWay = LoopbackDelay
		p.Links = []*Link{{Name: a.Name + ":lo", Rate: LoopbackRate}}
	case src != nil && src == dst:
		p.OneWay = src.OneWay
		p.Links = []*Link{a.NIC, b.NICIn}
	case src != nil && dst != nil && n.wan != nil:
		p.OneWay = n.wan(a.Site, b.Site)
		p.Links = append(make([]*Link, 0, 4), a.NIC)
		if src.out != nil {
			p.Links = append(p.Links, src.out)
		}
		if dst.in != nil {
			p.Links = append(p.Links, dst.in)
		}
		p.Links = append(p.Links, b.NICIn)
	default:
		panic(fmt.Sprintf("netsim: no path %s -> %s", a.Name, b.Name))
	}
	return p
}

// SameSite reports whether two hosts are on the same site.
func SameSite(a, b *Host) bool { return a.Site == b.Site }
