// Package exp is the declarative experiment engine of the reproduction.
//
// An Experiment names everything one run of the paper's methodology needs:
// an implementation profile (MPICH2, GridMPI, MPICH-Madeleine, OpenMPI, or
// the raw-TCP reference), a tuning level (§4.2's TCP and MPI knobs), a
// topology (which Grid'5000 sites, how many nodes each, optionally
// overridden WAN latency and bandwidth), and a workload (pingpong,
// bandwidth trace, a collective/point-to-point pattern, an NPB kernel, or
// the ray2mesh application). A Sweep expands cross-products of those axes
// into a work list, and a Runner executes the list across a bounded worker
// pool with result caching keyed by experiment fingerprint. Results
// persist through the Store tier: a DiskCache directory on the local
// machine, or a RemoteStore speaking to a shared cmd/sweepd server with
// the DiskCache as its read-through tier — which is how one sweep matrix
// is sharded across machines (Shard) without ever recomputing a cell.
//
// Every experiment builds its own sim.Kernel, netsim.Network and tcpsim
// state, so individual runs stay byte-for-byte deterministic while a batch
// saturates all cores: running a sweep sequentially or with many workers
// yields identical results.
package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpiimpl"
	"repro/internal/netsim"
	"repro/internal/npb"
	"repro/internal/perf"
	"repro/internal/ray2mesh"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// Tuning is one of the paper's §4.2 configuration levels.
type Tuning struct {
	// TCP applies the §4.2.1 system tuning: 4 MB socket-buffer maxima plus
	// the per-implementation buffer fixes (the Figure 6 configuration).
	TCP bool `json:"tcp"`
	// MPI additionally applies the Table 5 eager/rendezvous thresholds
	// (the Figure 7 configuration).
	MPI bool `json:"mpi"`
	// Multilevel additionally switches every collective to the
	// topology-aware multilevel algorithms (intra-site phase, inter-site
	// phase over per-site gateways, intra-site redistribution) — the
	// tuning level beyond the paper's three, answering the question §4.3
	// stops short of. Encoded omitempty so the zero value reproduces the
	// pre-multilevel wire bytes: every legacy fingerprint, golden, and
	// DiskCache entry stays valid.
	Multilevel bool `json:"multilevel,omitempty"`
}

// TuningLevels lists the paper's three configurations in presentation
// order: defaults (Figure 3/5), TCP-tuned (Figure 6), fully tuned
// (Figure 7).
var TuningLevels = []Tuning{{}, {TCP: true}, {TCP: true, MPI: true}}

// MultilevelTuning is the fully tuned configuration plus topology-aware
// multilevel collectives — the fourth tuning level this repo adds.
var MultilevelTuning = Tuning{TCP: true, MPI: true, Multilevel: true}

// String names the level as the figures do: "default", "tcp-tuned",
// "fully-tuned" (or "mpi-tuned" for the off-matrix MPI-only combination);
// the multilevel axis reads "multilevel" on top of full tuning and
// "<base>+multilevel" for the off-matrix combinations.
func (t Tuning) String() string {
	base := "default"
	switch {
	case t.TCP && t.MPI:
		base = "fully-tuned"
	case t.TCP:
		base = "tcp-tuned"
	case t.MPI:
		base = "mpi-tuned"
	}
	if t.Multilevel {
		if t.TCP && t.MPI {
			return "multilevel"
		}
		return base + "+multilevel"
	}
	return base
}

// Workload kinds.
const (
	KindPingPong = "pingpong" // perf.PingPong between two hosts
	KindTrace    = "trace"    // perf.BandwidthTrace (Figure 9 protocol)
	KindPattern  = "pattern"  // an SPMD communication pattern on all hosts
	KindNPB      = "npb"      // one NAS Parallel Benchmark skeleton
	KindRay2Mesh = "ray2mesh" // the §4.4 seismic ray-tracing application
	KindFabric   = "fabric"   // §5 heterogeneity: pingpong on a custom local fabric
)

// Workload is a tagged union selected by Kind: each kind reads the
// fields kindFields names, and check refuses any other that is not zero,
// so a run has one fingerprint.
type Workload struct {
	Kind string `json:"kind"`
	// Sizes is the pingpong message-size grid.
	Sizes []int `json:"sizes,omitempty"`
	// Reps is round trips per size (pingpong), message count (trace).
	Reps int `json:"reps,omitempty"`
	// Pattern names the SPMD pattern, one of Patterns.
	Pattern string `json:"pattern,omitempty"`
	// Size is the message size for pattern and trace workloads.
	Size int `json:"size,omitempty"`
	// Iters is the pattern repetition count.
	Iters int `json:"iters,omitempty"`
	// Bench is the NPB kernel name (EP, CG, MG, LU, SP, BT, IS, FT).
	Bench string `json:"bench,omitempty"`
	// Scale shrinks NPB iteration counts / ray2mesh workloads (1.0 = the
	// paper's full class B / one million rays; 0 = 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Timeout is the virtual-time budget for NPB, pattern and ray2mesh
	// runs; past it the result reports DNF (0 = the workload's own
	// budget, see Budget; negative = no limit, the run continues until
	// it finishes or deadlocks).
	Timeout time.Duration `json:"timeout,omitempty"`
	// Master is the ray2mesh master site: rank 0 runs on its first node.
	Master string `json:"master,omitempty"`
	// FabricOneWay, FabricRate and FabricStack describe the custom
	// intra-cluster interconnect of a fabric workload: switch+wire
	// one-way delay, link rate in bytes/second, and per-endpoint
	// software overhead (OS-bypass fabrics are far cheaper than the
	// kernel TCP stack).
	FabricOneWay time.Duration `json:"fabric_one_way,omitempty"`
	FabricRate   float64       `json:"fabric_rate,omitempty"`
	FabricStack  time.Duration `json:"fabric_stack,omitempty"`
	// Gateway is the per-message MPICH-Madeleine-style gateway overhead
	// charged at the sender of a fabric workload.
	Gateway time.Duration `json:"gateway,omitempty"`
}

// kindFields names, by their JSON names, the Workload fields each kind
// reads.
var kindFields = map[string][]string{
	KindPingPong: {"sizes", "reps"},
	KindTrace:    {"size", "reps"},
	KindPattern:  {"pattern", "size", "iters", "timeout"},
	KindNPB:      {"bench", "scale", "timeout"},
	KindRay2Mesh: {"master", "scale", "timeout"},
	KindFabric:   {"sizes", "reps", "fabric_one_way", "fabric_rate", "fabric_stack", "gateway"},
}

// foreignField returns the JSON name of a field w sets that its kind
// does not read, or "" when there is none.
func (w Workload) foreignField() string {
	v := reflect.ValueOf(w)
	for i := range v.NumField() {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		if name != "kind" && !v.Field(i).IsZero() && !slices.Contains(kindFields[w.Kind], name) {
			return name
		}
	}
	return ""
}

// PingPongWorkload is the §3.1 measurement: reps round trips per size,
// minimum RTT kept.
func PingPongWorkload(sizes []int, reps int) Workload {
	return Workload{Kind: KindPingPong, Sizes: sizes, Reps: reps}
}

// TraceWorkload is the Figure 9 protocol: count messages of the given
// size, per-message bandwidth against time.
func TraceWorkload(size, count int) Workload {
	return Workload{Kind: KindTrace, Size: size, Reps: count}
}

// PatternWorkload runs a named SPMD pattern on every host of the topology.
func PatternWorkload(pattern string, size, iters int) Workload {
	return Workload{Kind: KindPattern, Pattern: pattern, Size: size, Iters: iters}
}

// NPBWorkload runs one NAS kernel on every host of the topology.
func NPBWorkload(bench string, scale float64) Workload {
	return Workload{Kind: KindNPB, Bench: bench, Scale: scale}
}

// Ray2MeshWorkload runs the seismic application with the master on the
// given site: rank 0, the master, shares the first node of that site,
// and the slaves take the topology's hosts in placement order, one per
// node. A zero Topology runs on the paper's four-site testbed
// (Ray2MeshTopology()); any other layout containing the master site and
// at least two nodes is honored. Every other axis applies as to any
// workload: tuning (multilevel included), thresholds, socket buffers,
// WAN overrides, placements and fault plans.
func Ray2MeshWorkload(master string, scale float64) Workload {
	return Workload{Kind: KindRay2Mesh, Master: master, Scale: scale}
}

// FabricWorkload is the §5 heterogeneity experiment: a two-node pingpong
// over a custom local interconnect reached through a gateway with the
// given per-message overhead. Its testbed (a two-node local switch) and
// its stack (a 4 MB-tuned TCP configuration with the fabric's host
// overhead and the implementation's stock profile) come from these
// fields, so the Topology and Tuning axes must be zero — anything else
// is rejected rather than silently ignored. EagerThreshold, SocketBuffer
// and host-targeted fault plans apply as usual.
func FabricWorkload(oneWay time.Duration, rate float64, stack, gateway time.Duration, sizes []int, reps int) Workload {
	return Workload{
		Kind:         KindFabric,
		Sizes:        sizes,
		Reps:         reps,
		FabricOneWay: oneWay,
		FabricRate:   rate,
		FabricStack:  stack,
		Gateway:      gateway,
	}
}

// String is the workload's one-line label in names, matrix columns and
// CSV rows. It is presentation only — the cache key is the fingerprint
// of the normalized JSON, never this string.
func (w Workload) String() string {
	switch w.Kind {
	case KindPingPong:
		switch len(w.Sizes) {
		case 0:
			return fmt.Sprintf("pingpong[no sizes x%d]", w.Reps)
		case 1:
			return fmt.Sprintf("pingpong[%dB x%d]", w.Sizes[0], w.Reps)
		}
		return fmt.Sprintf("pingpong[%dB..%dB/%d x%d]",
			w.Sizes[0], w.Sizes[len(w.Sizes)-1], len(w.Sizes), w.Reps)
	case KindTrace:
		return fmt.Sprintf("trace[%dB x%d]", w.Size, w.Reps)
	case KindPattern:
		return fmt.Sprintf("%s[%dB x%d]", w.Pattern, w.Size, w.Iters)
	case KindNPB:
		return fmt.Sprintf("npb:%s@%g", w.Bench, w.scale())
	case KindRay2Mesh:
		return fmt.Sprintf("ray2mesh@%s x%g", w.Master, w.scale())
	case KindFabric:
		return fmt.Sprintf("fabric[owd=%v rate=%.0fMB/s gw=%v x%d]",
			w.FabricOneWay, w.FabricRate/1e6, w.Gateway, w.Reps)
	}
	return w.Kind
}

func (w Workload) scale() float64 {
	if w.Scale == 0 {
		return 1
	}
	return w.Scale
}

// Budget is the virtual-time budget a pattern, NPB or ray2mesh run
// gets: Timeout, or when it is zero one simulated hour, but none for
// ray2mesh. A negative budget is none.
func (w Workload) Budget() time.Duration {
	switch {
	case w.Timeout != 0:
		return w.Timeout
	case w.Kind == KindRay2Mesh:
		// The application's fingerprint carries no time budget: by
		// default it runs until it finishes or deadlocks.
		return -1
	}
	return time.Hour
}

// Experiment is one fully specified run. Its JSON encoding is frozen —
// the fingerprint (and therefore every persistent cache entry, local or
// remote) is a hash of these bytes, so tags, field order and the
// zero-value omissions must not change; a new axis must be added as an
// omitempty field whose zero value reproduces the old bytes. When a
// change to the simulation makes old cached results untrustworthy
// without changing this encoding, bump DiskSchemaVersion instead.
type Experiment struct {
	Impl     string   `json:"impl"`
	Tuning   Tuning   `json:"tuning"`
	Topology Topology `json:"topology"`
	Workload Workload `json:"workload"`
	// EagerThreshold overrides the profile's eager/rendezvous switch when
	// positive (threshold sweeps, Table 5).
	EagerThreshold int `json:"eager_threshold,omitempty"`
	// SocketBuffer, when positive, pins both the kernel socket-buffer
	// maxima and the implementation's buffer policy to an explicit size
	// (the §4.2.1 buffer ablation). Applied on top of the Tuning level.
	SocketBuffer int `json:"socket_buffer,omitempty"`
	// Faults is the seeded fault schedule injected into the run's kernel
	// (nil or zero = the healthy grid, encoding byte-identical to pre-fault
	// experiments, so every legacy fingerprint and cache entry survives).
	Faults *FaultPlan `json:"faults,omitempty"`
}

// normalized resolves the workload's aliases (Scale 0 means 1.0,
// Timeout 0 means one hour, and every negative Timeout means no limit)
// so semantically identical experiments share one fingerprint.
func (e Experiment) normalized() Experiment {
	switch e.Workload.Kind {
	case KindNPB, KindRay2Mesh:
		e.Workload.Scale = e.Workload.scale()
	}
	// No limit is spelled −1 ns, or 0 for ray2mesh, whose default it is.
	switch e.Workload.Kind {
	case KindNPB, KindPattern:
		e.Workload.Timeout = max(e.Workload.Budget(), -1)
	case KindRay2Mesh:
		e.Workload.Timeout = max(e.Workload.Timeout, 0)
	}
	// A zero fault plan is the healthy grid: drop it so {} and nil share
	// one fingerprint — the pre-fault one.
	if e.Faults.IsZero() {
		e.Faults = nil
	}
	return e
}

// Fingerprint is a stable content hash of the experiment definition
// (SHA-256 of the normalized JSON, truncated to 16 hex digits): the
// Runner's cache key, the DiskCache file name, the cmd/sweepd wire
// address, and the shard/verify partition key. Zero-value workload
// aliases are normalized first, so e.g. NPB at Scale 0 and Scale 1.0
// share a key. Stable across processes, machines and releases — a
// cache directory written by an old build keeps serving the new one.
func (e Experiment) Fingerprint() string {
	fp, err := e.fingerprint()
	if err != nil {
		panic(err)
	}
	return fp
}

// fingerprint is Fingerprint reporting an experiment JSON cannot encode
// (a NaN or infinite scale or fault loss) as an error.
func (e Experiment) fingerprint() (string, error) {
	blob, err := json.Marshal(e.normalized())
	if err != nil {
		return "", fmt.Errorf("exp: unfingerprintable experiment: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8]), nil
}

// Name is a human-readable one-line identity.
func (e Experiment) Name() string {
	s := fmt.Sprintf("%s/%s/%s/%s", e.Impl, e.Tuning, e.Topology, e.Workload)
	if e.EagerThreshold > 0 {
		s += fmt.Sprintf("/eager=%d", e.EagerThreshold)
	}
	if !e.Faults.IsZero() {
		s += "/faults[" + e.Faults.String() + "]"
	}
	return s
}

// CollCount is one collective operation's call count.
type CollCount struct {
	Op    string `json:"op"`
	Calls int64  `json:"calls"`
}

// Census is a deterministic, serializable snapshot of a world's
// communication statistics.
type Census struct {
	P2PSends    int64           `json:"p2p_sends"`
	P2PBytes    int64           `json:"p2p_bytes"`
	WANSends    int64           `json:"wan_sends"`
	WANBytes    int64           `json:"wan_bytes"`
	Rendezvous  int64           `json:"rendezvous"`
	Unexpected  int64           `json:"unexpected"`
	Sizes       []mpi.SizeCount `json:"sizes,omitempty"`
	Collectives []CollCount     `json:"collectives,omitempty"`
}

// CensusOf snapshots stats into sorted, comparable form.
func CensusOf(s *mpi.Stats) Census {
	c := Census{
		P2PSends:   s.P2PSends,
		P2PBytes:   s.P2PBytes,
		WANSends:   s.WANSends,
		WANBytes:   s.WANBytes,
		Rendezvous: s.Rendezvous,
		Unexpected: s.Unexpected,
		Sizes:      s.SizeCensus(),
	}
	for _, op := range s.CollOps() {
		c.Collectives = append(c.Collectives, CollCount{Op: op, Calls: s.CollCalls(op)})
	}
	return c
}

// Result of one experiment. Everything serialized is a pure function of
// the Experiment, so two runs of the same experiment marshal to identical
// bytes (the determinism tests enforce this).
type Result struct {
	Exp     Experiment    `json:"experiment"`
	Elapsed time.Duration `json:"elapsed"`
	DNF     bool          `json:"dnf,omitempty"`
	Err     string        `json:"err,omitempty"`
	// Points holds pingpong measurements (one per size).
	Points []perf.Point `json:"points,omitempty"`
	// Trace holds the per-message bandwidth trace.
	Trace []perf.TracePoint `json:"trace,omitempty"`
	// Metrics carries workload-specific scalars (max_mbps, min_rtt_us,
	// rays per node, phase times...). JSON marshals map keys sorted, so
	// output stays canonical.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Census  Census             `json:"census"`
	// Cached reports that the Runner served this result from its
	// fingerprint cache. Excluded from serialization: it describes the
	// batch, not the experiment.
	Cached bool `json:"-"`
}

// clone deep-copies the result's reference fields, so cache consumers
// can mutate what they receive without corrupting the shared entry.
func (r Result) clone() Result {
	out := r
	out.Points = append([]perf.Point(nil), r.Points...)
	out.Trace = append([]perf.TracePoint(nil), r.Trace...)
	out.Census.Sizes = append([]mpi.SizeCount(nil), r.Census.Sizes...)
	out.Census.Collectives = append([]CollCount(nil), r.Census.Collectives...)
	if r.Metrics != nil {
		out.Metrics = make(map[string]float64, len(r.Metrics))
		for k, v := range r.Metrics {
			out.Metrics[k] = v
		}
	}
	out.Exp.Faults = r.Exp.Faults.clone()
	return out
}

// MaxMbps is the best bandwidth over the result's points, or 0.
func (r Result) MaxMbps() float64 {
	best := 0.0
	for _, p := range r.Points {
		if p.Mbps > best {
			best = p.Mbps
		}
	}
	return best
}

// CheckImpl validates an implementation name against the profiles
// Configure accepts (CLI front-ends use it to reject typos before a
// worker panics on them).
func CheckImpl(name string) error {
	for _, k := range mpiimpl.Known {
		if k == name {
			return nil
		}
	}
	return fmt.Errorf("unknown implementation %q (have %s)", name, strings.Join(mpiimpl.Known, ", "))
}

// CheckBench validates an NPB kernel name.
func CheckBench(name string) error {
	for _, n := range npb.Names {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown NPB bench %q (have %s)", name, strings.Join(npb.Names, ", "))
}

// CheckSite validates a ray2mesh master site.
func CheckSite(name string) error {
	for _, s := range ray2mesh.Sites {
		if s == name {
			return nil
		}
	}
	return fmt.Errorf("unknown ray2mesh master site %q (have %s)", name, strings.Join(ray2mesh.Sites, ", "))
}

// Run executes one experiment on freshly built simulation state. It is
// the only code that builds a kernel, a network and an MPI world, and
// every workload kind takes the same steps: check the inputs, configure
// the stack, create the kernel, build the testbed (the network plus the
// host of every rank), inject the fault plan, open the world and run the
// workload on it. It never shares mutable state with other runs, so any
// number of Run calls may proceed concurrently. Invalid experiments come
// back as Result.Err, and a panic anywhere below is converted to one too
// — a worker pool must never die (or poison its cache) on one bad
// experiment.
func Run(e Experiment) (res Result) {
	res = Result{Exp: e}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("exp: panic: %v", r)
		}
	}()
	if err := e.check(); err != nil {
		res.Err = err.Error()
		return res
	}
	prof, tcp := e.stack()
	// The fault plan's seed is the kernel seed: healthy runs (nil plan)
	// keep the historic seed 1 and replay the pre-fault event stream
	// byte-for-byte; a seeded plan gives each replica its own loss draws.
	k := sim.New(e.Faults.kernelSeed())
	defer k.Close()
	net, hosts, err := e.testbed()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if err := e.Faults.inject(k, net); err != nil {
		res.Err = err.Error()
		return res
	}
	w := mpi.NewWorld(k, net, tcp, prof, hosts)

	wl := e.Workload
	switch wl.Kind {
	case KindPingPong, KindFabric:
		pts, err := perf.PingPong(w, wl.Sizes, wl.Reps)
		res.Points = pts
		res.Elapsed = k.Now()
		res.fill(w, err)
		if wl.Kind == KindPingPong && len(pts) > 0 {
			res.addMetric("max_mbps", res.MaxMbps())
			res.addMetric("min_rtt_us", float64(pts[0].MinRTT)/float64(time.Microsecond))
		}
	case KindTrace:
		trace, err := perf.BandwidthTrace(w, wl.Size, wl.Reps)
		res.Trace = trace
		res.Elapsed = k.Now()
		res.fill(w, err)
	case KindPattern:
		body, _ := PatternBody(wl.Pattern, wl.Size, wl.Iters) // check vouched for it
		elapsed, err := runBody(w, body, wl)
		res.Elapsed = elapsed
		res.fill(w, err)
	case KindNPB:
		spec := npb.Get(wl.Bench)
		params := npb.Params{NP: w.Size(), Scale: wl.scale()}
		elapsed, err := runBody(w, func(r *mpi.Rank) { spec.Run(r, params) }, wl)
		res.Elapsed = elapsed
		res.fill(w, err)
	case KindRay2Mesh:
		app := ray2mesh.New(ray2mesh.Default().Scaled(wl.scale()), w.Size())
		elapsed, err := runBody(w, app.Body, wl)
		res.Elapsed = elapsed
		res.fill(w, err)
		if err == nil {
			res.addRay2MeshMetrics(app, w, e.topology())
		}
	}
	return res
}

// check refuses, before anything is built, the experiments that cannot
// run. The topology itself is validated when the testbed is built.
func (e Experiment) check() error {
	if err := CheckImpl(e.Impl); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	if err := e.Faults.Validate(); err != nil {
		return err
	}
	// A negative override would run the profile's default under a
	// fingerprint of its own: two cache entries for one run.
	if e.EagerThreshold < 0 || e.SocketBuffer < 0 {
		return fmt.Errorf("exp: negative override: eager threshold %d, socket buffer %d", e.EagerThreshold, e.SocketBuffer)
	}
	wl := e.Workload
	// A negative message size would run as an empty message and report
	// a negative bandwidth.
	if wl.Size < 0 || slices.ContainsFunc(wl.Sizes, func(n int) bool { return n < 0 }) {
		return fmt.Errorf("exp: %s has a negative message size", wl)
	}
	// A scale that is negative, NaN or infinite names no run: NPB would
	// clamp it to one iteration, and NaN cannot be fingerprinted.
	if (wl.Kind == KindNPB || wl.Kind == KindRay2Mesh) && (!(wl.Scale >= 0) || math.IsInf(wl.Scale, 1)) {
		return fmt.Errorf("exp: %s scale %g is not a finite number ≥ 0", wl.Kind, wl.Scale)
	}
	switch wl.Kind {
	case KindPingPong, KindTrace:
		if e.Topology.NP() < 2 {
			return fmt.Errorf("exp: %s needs at least 2 nodes in the topology", wl.Kind)
		}
	case KindPattern:
		if err := CheckPattern(wl.Pattern); err != nil {
			return err
		}
		// Without an iteration a pattern measures nothing, and its
		// elapsed 0 would be cached as a result.
		if wl.Iters < 1 {
			return fmt.Errorf("exp: pattern %s needs at least one iteration, got iters = %d", wl.Pattern, wl.Iters)
		}
		// On one rank the pingpong would send to itself, and a
		// rendezvous would wait for a receive it has not yet posted.
		if wl.Pattern == "pingpong" && e.Topology.NP() < 2 {
			return fmt.Errorf("exp: the pingpong pattern needs at least 2 nodes in the topology")
		}
	case KindNPB:
		if err := CheckBench(wl.Bench); err != nil {
			return fmt.Errorf("exp: %w", err)
		}
		// Scale 1 is the full class B, the largest the skeletons run:
		// a larger scale would run class B under another fingerprint.
		if wl.Scale > 1 {
			return fmt.Errorf("exp: npb scale %g is above 1 (the full class B)", wl.Scale)
		}
	case KindRay2Mesh:
		topo := e.topology()
		if !slices.Contains(topo.Sites(), wl.Master) {
			return fmt.Errorf("exp: ray2mesh master site %q is not in topology %s", wl.Master, topo)
		}
		if topo.NP() < 2 {
			return fmt.Errorf("exp: ray2mesh needs at least 2 slaves, topology %s has %d", topo, topo.NP())
		}
		if rays := ray2mesh.Default().Scaled(wl.scale()).Rays; rays < 0 {
			return fmt.Errorf("exp: ray2mesh scale %g gives a negative ray count %d", wl.Scale, rays)
		}
	case KindFabric:
		// The fabric's testbed and stack replace the Topology and Tuning
		// axes, so anything but zero would mislabel the run.
		if !e.Topology.IsZero() {
			return fmt.Errorf("exp: fabric workloads build their own two-node testbed; topology %s cannot be honored — leave it zero", e.Topology)
		}
		if e.Tuning != (Tuning{}) {
			return fmt.Errorf("exp: fabric workloads always run the 4 MB-tuned stack with the stock profile; leave Tuning zero")
		}
		if !(wl.FabricRate >= 1) {
			return fmt.Errorf("exp: fabric workload %s needs a rate of at least 1 B/s", wl)
		}
		if wl.FabricOneWay < 0 || wl.FabricStack < 0 || wl.Gateway < 0 {
			return fmt.Errorf("exp: fabric workload %s has a negative delay", wl)
		}
	default:
		return fmt.Errorf("exp: unknown workload kind %q", wl.Kind)
	}
	// A field the kind does not read would run the same cell under a
	// fingerprint of its own.
	if f := wl.foreignField(); f != "" {
		return fmt.Errorf("exp: %s workloads do not read %s; leave it zero", wl.Kind, f)
	}
	// A pingpong without sizes measures nothing; one without round
	// trips has no RTT, so its bandwidth would be infinite and its
	// result unserializable; a trace without messages has no points.
	if (wl.Kind == KindPingPong || wl.Kind == KindFabric) && len(wl.Sizes) == 0 {
		return fmt.Errorf("exp: %s needs at least one message size", wl.Kind)
	}
	if (wl.Kind == KindPingPong || wl.Kind == KindFabric || wl.Kind == KindTrace) && wl.Reps < 1 {
		return fmt.Errorf("exp: %s needs at least one message, got reps = %d", wl.Kind, wl.Reps)
	}
	return nil
}

// stack configures the run's MPI profile and TCP stack: the
// implementation at its tuning level, then the experiment's
// eager-threshold and socket-buffer overrides.
func (e Experiment) stack() (mpi.Profile, tcpsim.Config) {
	prof, tcp := mpiimpl.Configure(e.Impl, e.Tuning.TCP, e.Tuning.MPI)
	prof.Multilevel = e.Tuning.Multilevel
	if e.Workload.Kind == KindFabric {
		// The implementation's stock profile (check keeps the Tuning
		// zero) over a 4 MB-tuned stack with the fabric's host overhead,
		// still paced if the implementation paces, plus the gateway's
		// overhead on every message.
		paced := tcp.Pacing
		tcp = tcpsim.Tuned4MB()
		tcp.HostOverhead = e.Workload.FabricStack
		tcp.Pacing = paced
		prof.OverheadLocal += e.Workload.Gateway
	}
	if e.EagerThreshold > 0 {
		prof = prof.WithEagerThreshold(e.EagerThreshold)
	}
	if e.SocketBuffer > 0 {
		tcp.RmemMax = e.SocketBuffer
		tcp.WmemMax = e.SocketBuffer
		prof = prof.WithBuffers(tcpsim.BufferPolicy{Explicit: e.SocketBuffer})
	}
	return prof, tcp
}

// topology is the layout the experiment runs on. A ray2mesh experiment's
// zero topology resolves to the Figure 8 testbed here, at run time,
// rather than in normalized, so its fingerprint stays the zero one.
func (e Experiment) topology() Topology {
	if e.Workload.Kind == KindRay2Mesh && e.Topology.IsZero() {
		return Ray2MeshTopology()
	}
	return e.Topology
}

// fabricSite names the fabric workload's two-node cluster.
const fabricSite = "local"

// testbed builds the run's network and the host of every rank: the
// fabric's two-node cluster, or the topology's hosts in placement order
// — cut down to the two endpoints of a pingpong or trace, and led by the
// master for ray2mesh.
func (e Experiment) testbed() (*netsim.Network, []*netsim.Host, error) {
	wl := e.Workload
	if wl.Kind == KindFabric {
		net := netsim.New([]netsim.Site{{
			Name:     fabricSite,
			Nodes:    2,
			CPUSpeed: 1,
			NICRate:  wl.FabricRate,
			OneWay:   wl.FabricOneWay,
		}}, nil)
		return net, net.Hosts(), nil
	}
	topo := e.topology()
	net, err := topo.Build()
	if err != nil {
		return nil, nil, err
	}
	switch wl.Kind {
	case KindPingPong, KindTrace:
		return net, topo.endpointHosts(net), nil
	case KindRay2Mesh:
		// Rank 0, the master, shares the first node of its site with
		// that node's slave (33 processes on 32 nodes in the paper).
		return net, append([]*netsim.Host{net.SiteHosts(wl.Master)[0]}, topo.RankHosts(net)...), nil
	}
	return net, topo.RankHosts(net), nil
}

// runBody executes an SPMD body under the workload's time budget.
func runBody(w *mpi.World, body func(*mpi.Rank), wl Workload) (time.Duration, error) {
	b := wl.Budget()
	if b < 0 {
		return w.Run(body)
	}
	return w.RunTimeout(body, b)
}

// addMetric merges one scalar into the result's metrics map.
func (r *Result) addMetric(key string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[key] = v
}

// fill records the census, the degraded-mode transport metrics of a
// faulted run, and classifies the run error.
func (r *Result) fill(w *mpi.World, err error) {
	r.Census = CensusOf(w.Stats())
	if !r.Exp.Faults.IsZero() {
		// Degraded-mode metrics only exist under a fault plan: a healthy
		// run's serialization must stay byte-identical to pre-fault builds.
		fs := w.FlowStats()
		r.addMetric("fault_retransmits", float64(fs.InjectedLosses))
		r.addMetric("fault_retrans_bytes", float64(fs.RetransBytes))
		r.addMetric("fault_link_stalls", float64(fs.LinkStalls))
		r.addMetric("fault_stall_s", fs.StallTime.Seconds())
		r.addMetric("fault_timeouts", float64(fs.Timeouts))
	}
	if err == nil {
		return
	}
	if errors.Is(err, mpi.ErrTimeout) {
		r.DNF = true
		return
	}
	r.Err = err.Error()
}

// addRay2MeshMetrics turns a finished ray2mesh run's accounting into
// Tables 6 and 7: the phase times, the ray total and the mean rays per
// node of every site. Elapsed is the end of the last merge.
func (r *Result) addRay2MeshMetrics(app *ray2mesh.App, w *mpi.World, topo Topology) {
	r.Elapsed = app.End
	r.addMetric("comp_s", app.CompEnd.Seconds())
	r.addMetric("merge_s", (app.End - app.CompEnd).Seconds())
	r.addMetric("total_s", app.End.Seconds())
	perSite := make(map[string]int)
	total := 0
	for i, rays := range app.Rays {
		perSite[w.RankAt(i).Site()] += rays
		total += rays
	}
	r.addMetric("total_rays", float64(total))
	for _, s := range topo.Layout {
		r.addMetric("rays_per_node_"+s.Name, float64(perSite[s.Name])/float64(s.Nodes))
	}
}
