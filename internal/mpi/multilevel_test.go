package mpi

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/grid5000"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// The property suite: table-driven over 1–4-site asymmetric layouts ×
// all eight collectives × flat/multilevel, asserting per-rank byte
// conservation against the flat variant, WAN-message economy, rerun
// determinism, and single-site event-stream identity.

// mlLayouts are the testbeds. Node counts are deliberately misaligned
// with powers of two so the flat binomial trees genuinely straddle site
// boundaries; the 1-site layout pins the fall-through path.
var mlLayouts = []struct {
	name   string
	layout []netsim.Site
}{
	{"1site", []netsim.Site{grid5000.Cluster(grid5000.Rennes, 5)}},
	{"2site", []netsim.Site{grid5000.Cluster(grid5000.Rennes, 5), grid5000.Cluster(grid5000.Nancy, 3)}},
	{"3site", []netsim.Site{grid5000.Cluster(grid5000.Rennes, 3), grid5000.Cluster(grid5000.Nancy, 2), grid5000.Cluster(grid5000.Sophia, 2)}},
	{"4site", []netsim.Site{grid5000.Cluster(grid5000.Rennes, 3), grid5000.Cluster(grid5000.Nancy, 2), grid5000.Cluster(grid5000.Sophia, 2), grid5000.Cluster(grid5000.Toulouse, 1)}},
}

func layoutNP(layout []netsim.Site) int {
	np := 0
	for _, sc := range layout {
		np += sc.Nodes
	}
	return np
}

// newLayoutWorld builds a world over an arbitrary per-site layout, hosts
// in site order (block placement).
func newLayoutWorld(t *testing.T, prof Profile, layout []netsim.Site) (*sim.Kernel, *World) {
	t.Helper()
	k := sim.New(1)
	net := netsim.New(layout, grid5000.OneWay)
	var hosts []*netsim.Host
	for _, sc := range layout {
		hosts = append(hosts, net.SiteHosts(sc.Name)...)
	}
	return k, NewWorld(k, net, tcpsim.Tuned4MB(), prof, hosts)
}

// runCollStats runs body on the layout and returns the world's stats.
func runCollStats(t *testing.T, multilevel bool, layout []netsim.Site, body func(r *Rank)) *Stats {
	t.Helper()
	prof := Reference()
	prof.Multilevel = multilevel
	k, w := newLayoutWorld(t, prof, layout)
	defer k.Close()
	if _, err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	return w.Stats()
}

// collCase is one collective under test. Rooted operations use root
// P-1 — the last site's last rank — so the flat trees are maximally
// misaligned with the site boundaries, the regime multilevel staging is
// for. check asserts the per-rank byte-conservation property of the
// operation given both runs' stats.
type collCase struct {
	name   string
	strict bool // WAN count must be strictly lower at the large size
	body   func(r *Rank, root, n int)
	check  func(t *testing.T, flat, ml *Stats, P, root int, n int64)
}

var collCases = []collCase{
	{
		name: "bcast", strict: true,
		body: func(r *Rank, root, n int) { r.Bcast(root, n) },
		check: func(t *testing.T, flat, ml *Stats, P, root int, n int64) {
			// Every non-root rank receives exactly the payload, in both
			// variants: the received-bytes vectors must match rank for rank.
			for i := 0; i < P; i++ {
				if f, m := flat.CollRecvBytes(i), ml.CollRecvBytes(i); f != m {
					t.Errorf("rank %d received %d bytes flat vs %d multilevel", i, f, m)
				}
			}
		},
	},
	{
		name: "reduce",
		body: func(r *Rank, root, n int) { r.Reduce(root, n) },
		check: func(t *testing.T, flat, ml *Stats, P, root int, n int64) {
			// Every non-root rank contributes its n bytes exactly once.
			for i := 0; i < P; i++ {
				if f, m := flat.CollSentBytes(i), ml.CollSentBytes(i); f != m {
					t.Errorf("rank %d sent %d bytes flat vs %d multilevel", i, f, m)
				}
			}
		},
	},
	{
		name: "allreduce", strict: true,
		body: func(r *Rank, _, n int) { r.Allreduce(n) },
		check: func(t *testing.T, flat, ml *Stats, P, root int, n int64) {
			for i := 0; i < P; i++ {
				if got := ml.CollRecvBytes(i); got < n {
					t.Errorf("rank %d received %d bytes, needs the %d-byte combined result", i, got, n)
				}
				if got := ml.CollSentBytes(i); got < n {
					t.Errorf("rank %d sent %d bytes, must contribute %d", i, got, n)
				}
			}
		},
	},
	{
		name: "gather",
		body: func(r *Rank, root, n int) { r.Gather(root, n) },
		check: func(t *testing.T, flat, ml *Stats, P, root int, n int64) {
			want := int64(P-1) * n
			if f, m := flat.CollRecvBytes(root), ml.CollRecvBytes(root); f != want || m != want {
				t.Errorf("root received %d flat / %d multilevel bytes, want %d both", f, m, want)
			}
		},
	},
	{
		name: "scatter",
		body: func(r *Rank, root, n int) { r.Scatter(root, n) },
		check: func(t *testing.T, flat, ml *Stats, P, root int, n int64) {
			want := int64(P-1) * n
			if f, m := flat.CollSentBytes(root), ml.CollSentBytes(root); f != want || m != want {
				t.Errorf("root sent %d flat / %d multilevel bytes, want %d both", f, m, want)
			}
			for i := 0; i < P; i++ {
				if i != root && ml.CollRecvBytes(i) < n {
					t.Errorf("rank %d received %d bytes, wants its %d-byte slice", i, ml.CollRecvBytes(i), n)
				}
			}
		},
	},
	{
		name: "allgather",
		body: func(r *Rank, _, n int) { r.Allgather(n) },
		check: func(t *testing.T, flat, ml *Stats, P, root int, n int64) {
			for i := 0; i < P; i++ {
				if got := ml.CollRecvBytes(i); got < int64(P-1)*n {
					t.Errorf("rank %d received %d bytes, needs the other %d blocks", i, got, P-1)
				}
			}
		},
	},
	{
		name: "alltoall", strict: true,
		body: func(r *Rank, _, n int) { r.Alltoall(n) },
		check: func(t *testing.T, flat, ml *Stats, P, root int, n int64) {
			want := int64(P-1) * n
			for i := 0; i < P; i++ {
				if got := ml.CollRecvBytes(i); got < want {
					t.Errorf("rank %d received %d bytes, needs %d", i, got, want)
				}
				if got := ml.CollSentBytes(i); got < want {
					t.Errorf("rank %d sent %d bytes, must send %d", i, got, want)
				}
			}
		},
	},
	{
		name: "barrier",
		body: func(r *Rank, _, _ int) { r.Barrier() },
		check: func(t *testing.T, flat, ml *Stats, P, root int, n int64) {
			for i := 0; i < P; i++ {
				if ml.CollSentBytes(i) < 1 || ml.CollRecvBytes(i) < 1 {
					t.Errorf("rank %d did not both signal and hear the barrier (sent %d, recv %d)",
						i, ml.CollSentBytes(i), ml.CollRecvBytes(i))
				}
			}
		},
	},
}

// TestMultilevelProperties is the property suite over layouts ×
// collectives × sizes:
//
//	(a) per-rank byte conservation vs the flat variant,
//	(b) WAN-crossing message count <= flat on multi-site layouts,
//	    strictly lower for large-message bcast/allreduce/alltoall,
//	(c) bit-for-bit rerun determinism of both variants.
func TestMultilevelProperties(t *testing.T) {
	for _, lt := range mlLayouts {
		for _, tc := range collCases {
			for _, n := range []int{2 << 10, 256 << 10} {
				t.Run(fmt.Sprintf("%s/%s/%d", lt.name, tc.name, n), func(t *testing.T) {
					P := layoutNP(lt.layout)
					root := P - 1
					body := func(r *Rank) { tc.body(r, root, n) }
					flat := runCollStats(t, false, lt.layout, body)
					ml := runCollStats(t, true, lt.layout, body)

					tc.check(t, flat, ml, P, root, int64(n))

					if len(lt.layout) >= 2 {
						if ml.CollWANSends > flat.CollWANSends {
							t.Errorf("multilevel crosses the WAN %d times, flat only %d",
								ml.CollWANSends, flat.CollWANSends)
						}
						if tc.strict && n >= 256<<10 && ml.CollWANSends >= flat.CollWANSends {
							t.Errorf("multilevel %s must cross the WAN strictly less: %d vs flat %d",
								tc.name, ml.CollWANSends, flat.CollWANSends)
						}
					} else if ml.CollWANSends != 0 || flat.CollWANSends != 0 {
						t.Errorf("single-site run crossed the WAN (%d flat, %d multilevel)",
							flat.CollWANSends, ml.CollWANSends)
					}

					// Reruns reproduce the traffic census bit for bit.
					again := runCollStats(t, true, lt.layout, body)
					if again.CollSends != ml.CollSends || again.CollBytes != ml.CollBytes ||
						again.CollWANSends != ml.CollWANSends || again.CollWANBytes != ml.CollWANBytes {
						t.Errorf("multilevel rerun census diverged: %+v vs %+v",
							[4]int64{again.CollSends, again.CollBytes, again.CollWANSends, again.CollWANBytes},
							[4]int64{ml.CollSends, ml.CollBytes, ml.CollWANSends, ml.CollWANBytes})
					}
				})
			}
		}
	}
}

// TestMultilevelSingleSiteEventStreamIdentical: property (d) — with one
// site there is nothing to stage, so Multilevel must fall through to the
// flat algorithms and replay their exact (time, seq) event stream.
func TestMultilevelSingleSiteEventStreamIdentical(t *testing.T) {
	trace := func(multilevel bool) string {
		var buf bytes.Buffer
		sim.NewHook = func(k *sim.Kernel) {
			k.SetTracer(func(at sim.Time, seq uint64) {
				fmt.Fprintf(&buf, "%d %d\n", int64(at), seq)
			})
		}
		defer func() { sim.NewHook = nil }()
		prof := Reference()
		prof.Multilevel = multilevel
		k, w := newLayoutWorld(t, prof, mlLayouts[0].layout)
		defer k.Close()
		if _, err := w.Run(func(r *Rank) {
			r.Bcast(0, 4096)
			r.Reduce(1, 4096)
			r.Allreduce(4096)
			r.Gather(2, 4096)
			r.Scatter(2, 4096)
			r.Allgather(4096)
			r.Alltoall(4096)
			r.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	flat, ml := trace(false), trace(true)
	if flat != ml {
		t.Fatalf("single-site multilevel event stream diverged from flat (%d vs %d bytes)", len(ml), len(flat))
	}
}

// TestSiteGroupsFirstAppearanceOrder pins the contract multilevel
// gateway selection depends on: groups are ordered by the site's first
// appearance walking ranks 0..P-1, and each group lists its ranks in
// rank order.
func TestSiteGroupsFirstAppearanceOrder(t *testing.T) {
	k := sim.New(1)
	defer k.Close()
	net := netsim.New([]netsim.Site{
		grid5000.Cluster(grid5000.Rennes, 3),
		grid5000.Cluster(grid5000.Nancy, 2),
		grid5000.Cluster(grid5000.Sophia, 1),
	}, grid5000.OneWay)
	r := net.SiteHosts(grid5000.Rennes)
	n := net.SiteHosts(grid5000.Nancy)
	s := net.SiteHosts(grid5000.Sophia)
	// Interleave the sites: rank -> site is R N R S N R.
	hosts := []*netsim.Host{r[0], n[0], r[1], s[0], n[1], r[2]}
	w := NewWorld(k, net, tcpsim.Tuned4MB(), Reference(), hosts)
	got := w.sites()
	want := &sites{
		all:      []int{0, 1, 2, 3, 4, 5},
		groups:   [][]int{{0, 2, 5}, {1, 4}, {3}},
		of:       []int{0, 1, 0, 2, 1, 0},
		gateways: []int{0, 1, 3},
		sizes:    []int{3, 2, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sites = %+v, want %+v (first-appearance order)", got, want)
	}
}

// TestSitePartitionAllocFree pins the partition cache: a world builds
// its site partition once, and every later collective reuses it without
// allocating.
func TestSitePartitionAllocFree(t *testing.T) {
	skipIfRace(t)
	prof := Reference()
	prof.Multilevel = true
	k, w := newLayoutWorld(t, prof, mlLayouts[2].layout)
	defer k.Close()
	first := w.sites()
	if _, err := w.Run(func(r *Rank) { r.Bcast(0, 4096); r.Allreduce(4096) }); err != nil {
		t.Fatal(err)
	}
	if w.sites() != first {
		t.Fatal("collectives rebuilt the site partition")
	}
	if allocs := testing.AllocsPerRun(100, func() { w.sites() }); allocs != 0 {
		t.Fatalf("reusing the site partition allocates %v per call, want 0", allocs)
	}
}

// TestMultilevelLatencyWinsOnGrid: the reason the tuning level exists —
// large-message collectives on a multi-site grid finish faster staged
// than flat.
func TestMultilevelLatencyWinsOnGrid(t *testing.T) {
	layout := mlLayouts[2].layout // 3 sites: the case the two-site bcast gives up on
	for _, tc := range []struct {
		name string
		body func(r *Rank)
	}{
		{"bcast", func(r *Rank) { r.Bcast(0, 1<<20) }},
		{"allreduce", func(r *Rank) { r.Allreduce(1 << 20) }},
	} {
		elapsed := func(multilevel bool) int64 {
			prof := Reference()
			prof.Multilevel = multilevel
			k, w := newLayoutWorld(t, prof, layout)
			defer k.Close()
			d, err := w.Run(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			return int64(d)
		}
		flat, ml := elapsed(false), elapsed(true)
		if ml > flat {
			t.Errorf("%s: multilevel %d ns slower than flat %d ns", tc.name, ml, flat)
		}
	}
}
