package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func committed(t *testing.T) map[string]string {
	t.Helper()
	want, err := loadDigests(committedDigests)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// oneRound sets a workload up and runs one measured round against the
// expected digest.
func oneRound(t *testing.T, w *workload, seed uint64, want string) *report {
	t.Helper()
	s, err := setUp(w, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	rep := &report{Name: w.name}
	if _, err := runRound(s, 1, nil, want, rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestOneRoundMatchesCommittedDigest runs one round of every workload at
// seed 1 against testdata/digests.json.
func TestOneRoundMatchesCommittedDigest(t *testing.T) {
	want := committed(t)
	for _, w := range append(workloads, fleet) {
		t.Run(w.name, func(t *testing.T) {
			if want[w.name] == "" {
				t.Fatalf("no committed digest for %s (regenerate with -update-digests)", w.name)
			}
			rep := oneRound(t, w, 1, want[w.name])
			if rep.Failed != 0 || len(rep.Errors) > 0 {
				t.Fatalf("%d of %d cells failed: %v", rep.Failed, rep.Attempted, rep.Errors)
			}
		})
	}
}

// TestShuffleKeepsDigest: another seed reorders paper-pingpong's cells
// across the two clients but cannot change a result.
func TestShuffleKeepsDigest(t *testing.T) {
	if a, b := rand.New(rand.NewPCG(1, streamShuffle|1)).Perm(15), rand.New(rand.NewPCG(2, streamShuffle|1)).Perm(15); slices.Equal(a, b) {
		t.Fatalf("seeds 1 and 2 shuffle identically: %v", a)
	}
	rep := oneRound(t, lookup("paper-pingpong"), 2, committed(t)["paper-pingpong"])
	if rep.Failed != 0 {
		t.Fatalf("seed 2 changed the paper-pingpong digest: %v", rep.Errors)
	}
}

// TestTamperedDigestFailsRun drives the command end to end with a wrong
// expected digest: every cell must count as failed, the run must exit
// nonzero, and the untraced run must leave sim.NewHook alone.
func TestTamperedDigestFailsRun(t *testing.T) {
	saved := committedDigests
	defer func() { committedDigests = saved }()
	committedDigests = []byte(`{"grid-collectives": "0000"}`)

	var kernels atomic.Int64
	sim.NewHook = func(*sim.Kernel) { kernels.Add(1) }
	defer func() { sim.NewHook = nil }()

	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "grid-collectives", "-seconds", "1"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "want 0000") {
		t.Errorf("no digest mismatch reported:\n%s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]json.RawMessage
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("result %+v: want every attempted cell failed", res)
	}
	if !regexp.MustCompile(`fail_ratio +1 +ratio`).MatchString(stdout.String()) {
		t.Errorf("fail_ratio is not 1:\n%s", stdout.String())
	}
	spec, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("result line lacks end-to-end metric %s", m.Name)
		}
	}
	if len(res.Metrics) != len(spec.EndToEnd) {
		t.Errorf("result line has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.EndToEnd))
	}

	// Had the untraced run installed a hook of its own, ours would be gone.
	before := kernels.Load()
	sim.New(1).Close()
	if before == 0 || kernels.Load() != before+1 {
		t.Errorf("the untraced run replaced sim.NewHook (kernels seen: %d, then %d)", before, kernels.Load())
	}
}

// TestCPUClocks: work on a locked thread shows on its CPU clock and the
// process's; a sleep shows on neither.
func TestCPUClocks(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, p0 := threadCPU(), processCPU()
	time.Sleep(20 * time.Millisecond)
	if slept := threadCPU() - c0; slept > 10*time.Millisecond {
		t.Errorf("a 20 ms sleep used %v of thread CPU", slept)
	}
	c0 = threadCPU()
	for t0 := time.Now(); time.Since(t0) < 20*time.Millisecond; {
	}
	thread, process := threadCPU()-c0, processCPU()-p0
	if thread < time.Millisecond || process < thread {
		t.Errorf("20 ms of spinning: thread CPU %v, process CPU %v", thread, process)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 down to 1
	}
	if got, err := percentile(xs, 99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if got, err := percentile(xs, 50); err != nil || got != 500 {
		t.Errorf("p50 of 1..1000 = %v, %v; want 500", got, err)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples (9 beyond it) was not refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, m, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"same code", base, scaled(1.01), "same"},
		{"slower", base, scaled(1.2), "worse"},
		{"faster", base, scaled(0.8), "better"},
		{"noisy base", []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}, base, "unresolved"},
	} {
		if got, _, _ := verdict(c.base, c.head, true, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
