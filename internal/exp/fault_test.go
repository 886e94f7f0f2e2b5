package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
)

// tinyFaultPlan is a small seeded plan over the tinyPingPong topology: a
// 100ms rennes-uplink outage plus 2% background loss.
func tinyFaultPlan() *FaultPlan {
	return &FaultPlan{
		Seed: 7,
		Events: []FaultEvent{
			{At: 20 * time.Millisecond, Kind: FaultDown, Site: grid5000.Rennes},
			{At: 120 * time.Millisecond, Kind: FaultUp, Site: grid5000.Rennes},
			{At: 0, Kind: FaultLoss, Loss: 0.02},
		},
	}
}

// TestEmptyFaultPlanIsInvisible is the satellite property test: an absent,
// nil, or zero-value FaultPlan must leave the experiment's normalized JSON
// — the input of the fingerprint, and with it the DiskCache filename
// (<fingerprint>.json) and the cmd/cached wire address — byte-identical to
// a pre-fault build's encoding. The expected bytes are hand-written, not
// encoder output, so the test cannot rot into a tautology.
func TestEmptyFaultPlanIsInvisible(t *testing.T) {
	base := tinyPingPong(mpiimpl.GridMPI, Tuning{TCP: true})
	withZero := base
	withZero.Faults = &FaultPlan{}

	preFault := `{"impl":"GridMPI","tuning":{"tcp":true,"mpi":false},` +
		`"topology":{"sites":["rennes","nancy"],"nodes_per_site":1},` +
		`"workload":{"kind":"pingpong","sizes":[1024,65536],"reps":3}}`
	for _, e := range []Experiment{base, withZero} {
		blob, err := json.Marshal(e.normalized())
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != preFault {
			t.Errorf("normalized encoding = %s,\nwant pre-fault %s", blob, preFault)
		}
	}
	if base.Fingerprint() != withZero.Fingerprint() {
		t.Error("zero-value FaultPlan changes the fingerprint")
	}
}

// TestFaultPlanWireEncoding freezes the faulted encoding the same way the
// topology test freezes the legacy one: hand-written JSON, hashed by hand.
// If this fails, cached faulted results (and any sharded faulted sweep)
// silently miss — change the encoding only with a DiskSchemaVersion bump
// and a deliberate update here.
func TestFaultPlanWireEncoding(t *testing.T) {
	e := tinyPingPong(mpiimpl.GridMPI, Tuning{TCP: true})
	e.Faults = tinyFaultPlan()
	want := `{"impl":"GridMPI","tuning":{"tcp":true,"mpi":false},` +
		`"topology":{"sites":["rennes","nancy"],"nodes_per_site":1},` +
		`"workload":{"kind":"pingpong","sizes":[1024,65536],"reps":3},` +
		`"faults":{"seed":7,"events":[` +
		`{"at":20000000,"kind":"down","site":"rennes"},` +
		`{"at":120000000,"kind":"up","site":"rennes"},` +
		`{"at":0,"kind":"loss","loss":0.02}]}}`
	blob, err := json.Marshal(e.normalized())
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != want {
		t.Fatalf("faulted encoding = %s,\nwant %s", blob, want)
	}
	sum := sha256.Sum256([]byte(want))
	if got, legacy := e.Fingerprint(), hex.EncodeToString(sum[:8]); got != legacy {
		t.Fatalf("faulted fingerprint = %s, want hash of frozen JSON %s", got, legacy)
	}
}

// TestFaultedRunDeterminism: the same seeded plan replays bit-for-bit,
// both run-to-run and across worker counts (the sweep-level determinism
// cmd/sweep's TestRunFaultsDeterministicAndCacheable checks end to end).
func TestFaultedRunDeterminism(t *testing.T) {
	plan := tinyFaultPlan()
	exps := make([]Experiment, 0, 4)
	for _, impl := range []string{mpiimpl.RawTCP, mpiimpl.MPICH2} {
		for _, tun := range []Tuning{{}, {TCP: true}} {
			e := tinyPingPong(impl, tun)
			e.Faults = plan
			exps = append(exps, e)
		}
	}
	seq := MarshalResults(NewRunner(1).RunAll(exps))
	par := MarshalResults(NewRunner(4).RunAll(exps))
	rerun := MarshalResults(NewRunner(4).RunAll(exps))
	if !bytes.Equal(seq, par) {
		t.Fatal("faulted sweep differs between 1 and 4 workers")
	}
	if !bytes.Equal(par, rerun) {
		t.Fatal("faulted sweep differs between two identical runs")
	}
}

// TestFaultMetricsAndSeedEffect: a faulted run reports the degraded-mode
// metrics, a healthy one does not, and changing only the plan seed changes
// the fingerprint (distinct replicas, distinct cache cells).
func TestFaultMetricsAndSeedEffect(t *testing.T) {
	healthy := tinyPingPong(mpiimpl.RawTCP, Tuning{TCP: true})
	faulted := healthy
	faulted.Faults = tinyFaultPlan()

	hres := Run(healthy)
	if hres.Err != "" {
		t.Fatal(hres.Err)
	}
	for k := range hres.Metrics {
		if strings.HasPrefix(k, "fault_") {
			t.Errorf("healthy run reports %s", k)
		}
	}
	fres := Run(faulted)
	if fres.Err != "" {
		t.Fatal(fres.Err)
	}
	for _, k := range []string{"fault_retransmits", "fault_retrans_bytes", "fault_link_stalls", "fault_stall_s", "fault_timeouts"} {
		if _, ok := fres.Metrics[k]; !ok {
			t.Errorf("faulted run missing metric %s (have %v)", k, fres.Metrics)
		}
	}
	if fres.Metrics["fault_link_stalls"] == 0 {
		t.Error("uplink outage caused no stall")
	}
	if fres.MaxMbps() >= hres.MaxMbps() {
		t.Errorf("faulted bandwidth %.1f not below healthy %.1f", fres.MaxMbps(), hres.MaxMbps())
	}

	reseeded := faulted
	plan := *faulted.Faults
	plan.Seed = 8
	reseeded.Faults = &plan
	if faulted.Fingerprint() == reseeded.Fingerprint() {
		t.Error("plan seed does not reach the fingerprint")
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{Events: []FaultEvent{{At: -time.Second, Kind: FaultDown, Site: "rennes"}}},
		{Events: []FaultEvent{{Kind: FaultDown}}},                                      // no target
		{Events: []FaultEvent{{Kind: FaultDown, Site: "rennes", Host: "rennes-1"}}},    // both targets
		{Events: []FaultEvent{{Kind: FaultDown, Site: "rennes", Loss: 0.1}}},           // loss on down
		{Events: []FaultEvent{{Kind: FaultLoss, Loss: 1.5}}},                           // p out of range
		{Events: []FaultEvent{{Kind: FaultLoss, Loss: 0.1, Jitter: time.Millisecond}}}, // jitter on loss
		{Events: []FaultEvent{{Kind: FaultJitter, Jitter: -time.Millisecond}}},
		{Events: []FaultEvent{{Kind: "reboot", Site: "rennes"}}},
		{Events: []FaultEvent{{Kind: FaultCrash}}},                              // no target
		{Events: []FaultEvent{{Kind: FaultCrash, Site: "rennes"}}},              // site crash
		{Events: []FaultEvent{{Kind: FaultCrash, Host: "rennes-1", Loss: 0.1}}}, // loss on crash
		{Events: []FaultEvent{ // a crashed host must stay dead
			{At: 10 * time.Millisecond, Kind: FaultCrash, Host: "rennes-1"},
			{At: 50 * time.Millisecond, Kind: FaultUp, Host: "rennes-1"},
		}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated", i)
		}
	}
	if err := tinyFaultPlan().Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
	crash := FaultPlan{Events: []FaultEvent{
		{At: 10 * time.Millisecond, Kind: FaultCrash, Host: "rennes-1"},
		// An up for a *different* host, or one scheduled before the crash
		// hits, does not resurrect the crashed one.
		{At: 50 * time.Millisecond, Kind: FaultUp, Host: "nancy-1"},
		{At: 5 * time.Millisecond, Kind: FaultUp, Host: "rennes-1"},
	}}
	if err := crash.Validate(); err != nil {
		t.Errorf("good crash plan rejected: %v", err)
	}
	if err := (*FaultPlan)(nil).Validate(); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
}

func TestFaultTargetResolution(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   FaultEvent
		want string // substring of the expected error, "" = ok
	}{
		{"unknown site", FaultEvent{Kind: FaultDown, Site: "toulouse"}, "no uplink"},
		{"unknown host", FaultEvent{Kind: FaultDown, Host: "rennes-99"}, "not in this topology"},
		{"host nic", FaultEvent{Kind: FaultDown, Host: "rennes-1"}, ""},
		{"untargeted loss", FaultEvent{Kind: FaultLoss, Loss: 0.01}, ""},
	} {
		e := tinyPingPong(mpiimpl.RawTCP, Tuning{})
		e.Faults = &FaultPlan{Events: []FaultEvent{tc.ev,
			// Recover so down events cannot stall the pingpong forever.
			{At: 50 * time.Millisecond, Kind: FaultUp, Site: tc.ev.Site, Host: tc.ev.Host}}}
		if tc.ev.Kind == FaultLoss {
			e.Faults.Events = e.Faults.Events[:1]
		}
		res := Run(e)
		if tc.want == "" {
			if res.Err != "" {
				t.Errorf("%s: unexpected error %q", tc.name, res.Err)
			}
			continue
		}
		if !strings.Contains(res.Err, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, res.Err, tc.want)
		}
	}
}

// TestCrashFaultCausesDNF is the node-crash satellite end to end: killing
// one host mid-ring strands the surviving rank on a receive that can
// never complete, so the run exhausts its time budget and reports DNF
// (not an error). The survivors' coroutines are still parked when
// exp.Run's deferred Kernel.Close fires — a hang or panic here means the
// single-threaded scheduler mishandled permanently-parked processes. The
// crashed run must also replay bit-for-bit like any other faulted run.
func TestCrashFaultCausesDNF(t *testing.T) {
	e := Experiment{
		Impl:     mpiimpl.MPICH2,
		Topology: Grid(1),
		Workload: PatternWorkload("ring", 1024, 50),
	}
	e.Workload.Timeout = 2 * time.Second
	e.Faults = &FaultPlan{Events: []FaultEvent{
		{At: 5 * time.Millisecond, Kind: FaultCrash, Host: "rennes-1"},
	}}
	res := Run(e)
	if res.Err != "" {
		t.Fatalf("crashed run errored instead of DNF: %s", res.Err)
	}
	if !res.DNF {
		t.Fatal("run with a crashed endpoint finished inside its budget")
	}
	if _, ok := res.Metrics["fault_link_stalls"]; !ok {
		t.Errorf("crashed run missing degraded-mode metrics (have %v)", res.Metrics)
	}
	a := MarshalResults([]Result{res})
	b := MarshalResults([]Result{Run(e)})
	if !bytes.Equal(a, b) {
		t.Fatal("crashed run is not deterministic across replays")
	}

	healthy := e
	healthy.Faults = nil
	if hres := Run(healthy); hres.DNF || hres.Err != "" {
		t.Fatalf("healthy control run under the same budget: DNF=%v err=%q", hres.DNF, hres.Err)
	}
}

// TestFaultsReachRay2MeshAndFabric: fault plans apply to the
// application and to the fabric pingpong like to every other workload.
// An outage stalls ray2mesh's traffic and slows it down, a crashed host
// ends it as a clean deadlock rather than a hang, and a fabric takes
// host-targeted events while the site-targeted and untargeted ones find
// no uplink on its single switch.
func TestFaultsReachRay2MeshAndFabric(t *testing.T) {
	ray := Experiment{Impl: mpiimpl.MPICH2, Tuning: Tuning{TCP: true}, Workload: Ray2MeshWorkload(grid5000.Rennes, 0.02)}
	healthy := Run(ray)
	outage := ray
	outage.Faults = mustParseFaultPlan(t, "0s down site=nancy; 500ms up site=nancy")
	res := Run(outage)
	if res.Err != "" || res.DNF {
		t.Fatalf("ray2mesh under an outage: err=%q dnf=%v", res.Err, res.DNF)
	}
	if res.Metrics["fault_link_stalls"] == 0 || res.Elapsed <= healthy.Elapsed {
		t.Errorf("outage did not reach ray2mesh: %g stalls, %v vs healthy %v",
			res.Metrics["fault_link_stalls"], res.Elapsed, healthy.Elapsed)
	}
	crash := ray
	crash.Faults = mustParseFaultPlan(t, "1s crash host=sophia-3")
	if res := Run(crash); !strings.Contains(res.Err, "deadlocked") {
		t.Errorf("ray2mesh with a crashed slave: err=%q dnf=%v, want a deadlock", res.Err, res.DNF)
	}

	fab := Experiment{
		Impl:     mpiimpl.MPICH2,
		Workload: FabricWorkload(5*time.Microsecond, 1.25e9, time.Microsecond, 10*time.Microsecond, tinySizes, 2),
	}
	fab.Faults = mustParseFaultPlan(t, "0s down host=local-2; 1ms up host=local-2")
	if res := Run(fab); res.Err != "" || res.Metrics["fault_link_stalls"] == 0 {
		t.Errorf("fabric with a host outage: err=%q stalls=%g", res.Err, res.Metrics["fault_link_stalls"])
	}
	for _, plan := range []string{"0s down site=local; 1ms up site=local", "0s loss 0.05"} {
		fab.Faults = mustParseFaultPlan(t, plan)
		if res := Run(fab); !strings.Contains(res.Err, "uplink") {
			t.Errorf("fabric with %q: err = %q, want no uplink", plan, res.Err)
		}
	}
}

func mustParseFaultPlan(t *testing.T, s string) *FaultPlan {
	t.Helper()
	plan, err := ParseFaultPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("seed=7; 20ms down site=rennes; 120ms up site=rennes; 0s loss 0.02")
	if err != nil {
		t.Fatal(err)
	}
	if want := tinyFaultPlan(); plan.Seed != want.Seed || len(plan.Events) != len(want.Events) {
		t.Fatalf("parsed %+v, want %+v", plan, want)
	}
	for i, ev := range plan.Events {
		if ev != tinyFaultPlan().Events[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, tinyFaultPlan().Events[i])
		}
	}

	if p, err := ParseFaultPlan("  "); p != nil || err != nil {
		t.Errorf("blank spec = %v, %v; want nil, nil", p, err)
	}
	if p, err := ParseFaultPlan("1s jitter 2ms host=nancy-1"); err != nil {
		t.Errorf("jitter spec rejected: %v", err)
	} else if ev := p.Events[0]; ev.Jitter != 2*time.Millisecond || ev.Host != "nancy-1" {
		t.Errorf("jitter event = %+v", ev)
	}
	if p, err := ParseFaultPlan("50ms crash host=rennes-1"); err != nil {
		t.Errorf("crash spec rejected: %v", err)
	} else if ev := p.Events[0]; ev != (FaultEvent{At: 50 * time.Millisecond, Kind: FaultCrash, Host: "rennes-1"}) {
		t.Errorf("crash event = %+v", ev)
	}

	for _, bad := range []string{
		"down site=rennes",              // missing time
		"1s down",                       // missing target
		"1s loss",                       // missing probability
		"1s loss nope",                  // bad probability
		"1s jitter",                     // missing duration
		"1s frobnicate site=x",          // unknown kind
		"seed=x",                        // bad seed
		"1s down site=a extra=b",        // unknown field
		"1s down site=a host=b",         // both targets
		"1s loss 0.5 jitter",            // trailing junk
		"1s crash site=rennes",          // crash needs a host
		"1s crash host=a; 2s up host=a", // no resurrection
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q parsed", bad)
		}
	}
}
