package netsim

import (
	"testing"
	"time"
)

const gbps = 125e6 // 1 Gbit/s in bytes/s

func buildTwoSites(t *testing.T) *Network {
	t.Helper()
	return New([]Site{
		{Name: "rennes", Nodes: 2, CPUSpeed: 1.0, NICRate: gbps, OneWay: 20 * time.Microsecond, UplinkRate: 10 * gbps},
		{Name: "nancy", Nodes: 2, CPUSpeed: 0.9, NICRate: gbps, OneWay: 20 * time.Microsecond, UplinkRate: 10 * gbps},
	}, func(a, b string) time.Duration { return 5800 * time.Microsecond })
}

func TestIntraSitePath(t *testing.T) {
	n := buildTwoSites(t)
	a, b := n.Host("rennes-1"), n.Host("rennes-2")
	p := n.Path(a, b)
	if p.OneWay != 20*time.Microsecond {
		t.Fatalf("intra OWD = %v", p.OneWay)
	}
	if len(p.Links) != 2 {
		t.Fatalf("intra path crosses %d links, want 2 (NICs only)", len(p.Links))
	}
	if p.Bottleneck() != gbps {
		t.Fatalf("bottleneck = %v, want 1 Gbps", p.Bottleneck())
	}
}

func TestInterSitePathCrossesUplinks(t *testing.T) {
	n := buildTwoSites(t)
	p := n.Path(n.Host("rennes-1"), n.Host("nancy-2"))
	if p.OneWay != 5800*time.Microsecond {
		t.Fatalf("WAN OWD = %v", p.OneWay)
	}
	if len(p.Links) != 4 {
		t.Fatalf("WAN path crosses %d links, want 4 (nic+2 uplinks+nic)", len(p.Links))
	}
	if p.RTT() != 11600*time.Microsecond {
		t.Fatalf("RTT = %v, want 11.6ms", p.RTT())
	}
}

func TestPathsAreDirectionalAndComplete(t *testing.T) {
	n := buildTwoSites(t)
	hosts := n.Hosts()
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			p := n.Path(a, b)
			if p.Src != a || p.Dst != b {
				t.Fatalf("path %v has wrong endpoints", p)
			}
		}
	}
}

func TestLinkFairShare(t *testing.T) {
	l := &Link{Name: "wan", Rate: 1000}
	if l.Share() != 1000 {
		t.Fatalf("idle share = %v", l.Share())
	}
	l.Acquire()
	if l.Share() != 1000 {
		t.Fatalf("single-flow share = %v, want full rate", l.Share())
	}
	l.Acquire()
	l.Acquire()
	l.Acquire()
	if l.Share() != 250 {
		t.Fatalf("4-flow share = %v, want 250", l.Share())
	}
	for i := 0; i < 4; i++ {
		l.Release()
	}
	if l.Active() != 0 {
		t.Fatalf("active = %d after releases", l.Active())
	}
}

func TestReleaseIdleLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release on idle link did not panic")
		}
	}()
	(&Link{Name: "x", Rate: 1}).Release()
}

func TestPathShareRateIsBottleneck(t *testing.T) {
	nicA := &Link{Name: "a", Rate: gbps}
	wan := &Link{Name: "wan", Rate: 10 * gbps}
	nicB := &Link{Name: "b", Rate: gbps}
	p := &Path{Links: []*Link{nicA, wan, nicB}}
	p.Acquire()
	if got := p.ShareRate(); got != gbps {
		t.Fatalf("share = %v, want NIC-limited 1 Gbps", got)
	}
	// Nine more flows on the WAN link: WAN share (10G/10 = 1G) ties the NIC;
	// one more makes the WAN the bottleneck.
	for i := 0; i < 10; i++ {
		wan.Acquire()
	}
	if got := p.ShareRate(); got >= gbps {
		t.Fatalf("share = %v, want < 1 Gbps under WAN contention", got)
	}
	p.Release()
}

func TestSiteQueries(t *testing.T) {
	n := buildTwoSites(t)
	if got := len(n.SiteHosts("rennes")); got != 2 {
		t.Fatalf("rennes hosts = %d", got)
	}
	sites := n.Sites()
	if len(sites) != 2 || sites[0] != "nancy" || sites[1] != "rennes" {
		t.Fatalf("sites = %v", sites)
	}
	if !SameSite(n.Host("rennes-1"), n.Host("rennes-2")) {
		t.Fatal("SameSite false for same-site hosts")
	}
	if SameSite(n.Host("rennes-1"), n.Host("nancy-1")) {
		t.Fatal("SameSite true across sites")
	}
}

// TestDuplicateHostPanics: host names derive from site names, so a
// repeated site is the one way to name two hosts alike.
func TestDuplicateHostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate site did not panic")
		}
	}()
	New([]Site{{Name: "s", Nodes: 1, CPUSpeed: 1, NICRate: gbps}, {Name: "s", Nodes: 1, CPUSpeed: 1, NICRate: gbps}}, nil)
}

func TestLoopbackPath(t *testing.T) {
	n := New([]Site{{Name: "s", Nodes: 1, CPUSpeed: 1, NICRate: gbps}}, nil)
	a := n.Host("s-1")
	p := n.Path(a, a)
	if p.OneWay != LoopbackDelay {
		t.Fatalf("loopback delay = %v", p.OneWay)
	}
	if p.Bottleneck() != LoopbackRate {
		t.Fatalf("loopback rate = %v", p.Bottleneck())
	}
	if n.Path(a, a) != p {
		t.Fatal("loopback path not cached")
	}
}

func TestFullDuplexNICs(t *testing.T) {
	n := buildTwoSites(t)
	fwd := n.Path(n.Host("rennes-1"), n.Host("nancy-1"))
	rev := n.Path(n.Host("nancy-1"), n.Host("rennes-1"))
	for _, lf := range fwd.Links {
		for _, lr := range rev.Links {
			if lf == lr {
				t.Fatalf("directions share link %s; NICs and uplinks must be full duplex", lf.Name)
			}
		}
	}
}

func TestMissingPathPanics(t *testing.T) {
	n := New([]Site{{Name: "s1", Nodes: 1, CPUSpeed: 1, NICRate: gbps}, {Name: "s2", Nodes: 1, CPUSpeed: 1, NICRate: gbps}}, nil)
	a, b := n.Host("s1-1"), n.Host("s2-1")
	defer func() {
		if recover() == nil {
			t.Fatal("Path between unconnected hosts did not panic")
		}
	}()
	n.Path(a, b)
}

func TestSetDownEvictsAndVoidsRegistrations(t *testing.T) {
	l := &Link{Name: "wan", Rate: 1000}
	gen := l.Gen()
	l.Acquire()
	l.Acquire()
	l.SetDown(true)
	if !l.Down() {
		t.Fatal("link not down after SetDown(true)")
	}
	if l.Active() != 0 {
		t.Fatalf("active = %d after SetDown, want 0 (flows evicted)", l.Active())
	}
	// The two holders release with their stale generation: both no-ops, no
	// panic — that is the fault-teardown path the ISSUE's Release bug is
	// about.
	l.ReleaseGen(gen)
	l.ReleaseGen(gen)
	if l.Active() != 0 {
		t.Fatalf("active = %d after stale releases", l.Active())
	}
	// A genuine double release with a current generation still panics.
	l.SetDown(false)
	l.Acquire()
	l.ReleaseGen(l.Gen())
	defer func() {
		if recover() == nil {
			t.Fatal("genuine double ReleaseGen did not panic")
		}
	}()
	l.ReleaseGen(l.Gen())
}

func TestNotifyUp(t *testing.T) {
	l := &Link{Name: "wan", Rate: 1000}
	ran := 0
	l.NotifyUp(func() { ran++ })
	if ran != 1 {
		t.Fatalf("NotifyUp on an up link ran %d times, want immediate call", ran)
	}
	l.SetDown(true)
	l.NotifyUp(func() { ran += 10 })
	l.NotifyUp(func() { ran += 100 })
	if ran != 1 {
		t.Fatal("callbacks ran while the link was down")
	}
	l.SetDown(false)
	if ran != 111 {
		t.Fatalf("ran = %d after SetDown(false), want both callbacks fired once", ran)
	}
	l.SetDown(false) // idempotent: nothing left to fire
	if ran != 111 {
		t.Fatalf("ran = %d after redundant SetDown(false)", ran)
	}
}

func TestPathNotifyUpWaitsForAllLinks(t *testing.T) {
	a := &Link{Name: "a", Rate: 1000}
	b := &Link{Name: "b", Rate: 1000}
	p := &Path{Links: []*Link{a, b}}
	a.SetDown(true)
	b.SetDown(true)
	if !p.Down() {
		t.Fatal("path not down with both links down")
	}
	ran := false
	p.NotifyUp(func() { ran = true })
	a.SetDown(false)
	if ran {
		t.Fatal("path callback fired with one link still down")
	}
	b.SetDown(false)
	if !ran {
		t.Fatal("path callback did not fire after full recovery")
	}
}

func TestAcquireReleaseGens(t *testing.T) {
	a := &Link{Name: "a", Rate: 1000}
	b := &Link{Name: "b", Rate: 1000}
	p := &Path{Links: []*Link{a, b}}
	gens := p.AcquireGens(nil)
	if len(gens) != 2 {
		t.Fatalf("len(gens) = %d, want 2", len(gens))
	}
	// b dies mid-hold; releasing must decrement a and skip b.
	b.SetDown(true)
	p.ReleaseGens(gens)
	if a.Active() != 0 || b.Active() != 0 {
		t.Fatalf("active = %d,%d after mixed release", a.Active(), b.Active())
	}
}

func TestPathExtraLossAndJitter(t *testing.T) {
	a := &Link{Name: "a", Rate: 1000}
	b := &Link{Name: "b", Rate: 1000}
	p := &Path{Links: []*Link{a, b}}
	if p.ExtraLoss() != 0 || p.Jitter() != 0 {
		t.Fatal("clean path reports injected faults")
	}
	a.SetExtraLoss(0.5)
	b.SetExtraLoss(0.5)
	if got := p.ExtraLoss(); got != 0.75 {
		t.Fatalf("combined loss = %v, want 0.75 (1-(1-0.5)^2)", got)
	}
	a.SetJitter(2 * time.Millisecond)
	b.SetJitter(1 * time.Millisecond)
	if got := p.Jitter(); got != 3*time.Millisecond {
		t.Fatalf("summed jitter = %v, want 3ms", got)
	}
}

func TestNetworkUplink(t *testing.T) {
	n := buildTwoSites(t)
	out, in, ok := n.Uplink("rennes")
	if !ok || out == nil || in == nil {
		t.Fatal("rennes uplink not found")
	}
	if out.Name != "rennes:uplink-out" || in.Name != "rennes:uplink-in" {
		t.Fatalf("uplink names = %s, %s", out.Name, in.Name)
	}
	if _, _, ok := n.Uplink("sophia"); ok {
		t.Fatal("nonexistent site reported an uplink")
	}
}
