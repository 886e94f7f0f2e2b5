package main

import (
	"encoding/csv"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
)

// tinyArgs is a fast two-implementation, two-tuning pingpong matrix.
var tinyArgs = []string{
	"-impls", "TCP,GridMPI", "-tunings", "default,tcp",
	"-reps", "3", "-max-size", "64k", "-workers", "4",
}

// TestRunSmokeTable: flag parsing plus one tiny end-to-end parallel sweep
// rendered as a matrix.
func TestRunSmokeTable(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(tinyArgs, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"impl", "TCP", "GridMPI", "default", "tcp-tuned", "4 experiments, 4 workers"} {
		if !strings.Contains(got, want) {
			t.Errorf("table missing %q:\n%s", want, got)
		}
	}
}

// TestRunJSONDeterministic: the JSON output of a parallel sweep is stable
// across runs and identical to a sequential one.
func TestRunJSONDeterministic(t *testing.T) {
	render := func(workers string) string {
		var out, errOut strings.Builder
		args := append([]string{"-format", "json", "-workers", workers}, tinyArgs[:len(tinyArgs)-2]...)
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	seq := render("1")
	par := render("8")
	if seq != par {
		t.Fatal("sequential and parallel sweep JSON differ")
	}
	var results []exp.Result
	if err := json.Unmarshal([]byte(seq), &results); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
}

// TestRunCSV covers the CSV output path.
func TestRunCSV(t *testing.T) {
	var out, errOut strings.Builder
	args := append([]string{"-format", "csv"}, tinyArgs...)
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV lines = %d, want header + 4 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "fingerprint,impl,tuning") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestRunPaperMatrixShape: the default invocation covers the full
// implementation × tuning matrix of the paper (5 × 3), just at reduced
// sampling for test speed.
func TestRunPaperMatrixShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 15-experiment matrix in -short mode")
	}
	var out, errOut strings.Builder
	if err := run([]string{"-reps", "3", "-max-size", "1M"}, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, impl := range []string{"TCP", "MPICH2", "GridMPI", "MPICH-Madeleine", "OpenMPI"} {
		if !strings.Contains(got, impl) {
			t.Errorf("matrix missing implementation %q", impl)
		}
	}
	for _, col := range []string{"default", "tcp-tuned", "fully-tuned"} {
		if !strings.Contains(got, col) {
			t.Errorf("matrix missing tuning column %q", col)
		}
	}
	if !strings.Contains(got, "15 experiments") {
		t.Errorf("expected 15 experiments:\n%s", got)
	}
}

// TestRunBadFlags covers rejection paths. Every refused invocation, in
// every mode, is refused before any side effect: it writes neither of
// the profiles it asks for, and creates no cache directory. The fleet
// and sync rows point at a live sweepd, where they would run if
// accepted.
func TestRunBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	srv := newSweepdServer(t)
	worker := []string{"-worker", srv.URL, "-worker-idle-exit", "1", "-retry", "0"}
	push := []string{"-push", "-cache", cache, "-cache-remote", srv.URL}
	pull := []string{"-pull", "-cache", cache, "-cache-remote", srv.URL}
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-tunings", "bogus"},
		{"-topo", "mesh"},
		{"-topo", "rennes:0"},
		{"-placement", "scatter"},
		{"-impls", "LAM/MPI"},
		{"-impls", "bogus"},
		{"-shard", "0/2"},
		{"-shard", "3/2"},
		{"-shard", "x"},
		{"-cache-evict", "720h"}, // needs -cache
		{"-cache-evict", "bogus"},
		{"-cache-evict", "nonsense", "-cache", cache},
		{"-faults", "1s frobnicate site=rennes"},
		{"-faults", "garbage"},
		{"-format", "xml", "-impls", "TCP", "-tunings", "default", "-reps", "1", "-max-size", "1k"},
		{"-guidelines", "-faults", "0s loss 0.02"}, // guidelines need a healthy network
		{"-guidelines", "-faults", "seed=1"},
		// -submit partitions the matrix itself and runs no guidelines;
		// both are refused before the server is contacted.
		{"-submit", "http://127.0.0.1:9", "-shard", "1/2"},
		{"-submit", "http://127.0.0.1:9", "-guidelines"},
		{"-submit", "not-a-url"},
		{"-cache-remote", "bogus"},
		{"-cache", cache, "-cache-remote", "bogus"}, // parsed before the directory is made
		// The fleet and sync modes check every flag too, and refuse a
		// -cache-remote that their sweepd would replace.
		append(worker, "-cache-evict", "bogus"),
		append(worker, "-cache-evict", "720h"), // needs -cache
		append(worker, "-faults", "garbage"),
		append(worker, "-shard", "9/2"),
		append(worker, "-workload", "nope"),
		append(worker, "-cache-remote", srv.URL),
		{"-submit", srv.URL, "-detach", "-cache-remote", srv.URL, "-impls", "TCP", "-tunings", "default", "-reps", "1", "-max-size", "1k"},
		append(push, "-cache-evict", "bogus"),
		append(push, "-faults", "garbage"),
		append(push, "-shard", "9/2"),
		append(push, "-workload", "nope"),
		append(pull, "-worker", srv.URL),
		append(pull, "-submit", srv.URL),
		// A scale or a loss that no run can take: NaN cannot be
		// fingerprinted, and NPB would clamp a negative scale.
		{"-impls", "GridMPI", "-tunings", "full", "-nodes", "2", "-workload", "npb:CG", "-scale", "NaN"},
		{"-impls", "GridMPI", "-tunings", "full", "-nodes", "2", "-workload", "npb:CG", "-scale", "-1"},
		{"-impls", "GridMPI", "-tunings", "full", "-reps", "2", "-max-size", "1k", "-faults", "0s loss NaN"},
		// A size grid with no sizes measures nothing, and neither do no
		// round trips or a single node.
		{"-impls", "GridMPI", "-tunings", "full", "-reps", "2", "-max-size", "512"},
		{"-impls", "GridMPI", "-tunings", "full", "-reps", "0", "-max-size", "1k"},
		{"-impls", "GridMPI", "-tunings", "full", "-reps", "2", "-max-size", "1k", "-topo", "rennes:1"},
		// Specs naming something other than what would run.
		{"-impls", "GridMPI", "-tunings", "full", "-reps", "2", "-max-size", "1k", "-workload", "pingpong:bogus"},
		{"-impls", "GridMPI", "-tunings", "full", "-reps", "2", "-size", "1k", "-workload", "trace:bogus"},
		{"-impls", "GridMPI,GridMPI", "-tunings", "full,full", "-reps", "2", "-max-size", "1k"},
		// A pattern without an iteration, and an NPB scale past class B.
		{"-impls", "GridMPI", "-tunings", "full", "-nodes", "1", "-workload", "pattern:alltoall", "-size", "1k", "-iters", "0"},
		{"-impls", "GridMPI", "-tunings", "full", "-nodes", "1", "-workload", "pattern:alltoall", "-size", "1k", "-iters", "-1"},
		{"-impls", "GridMPI", "-tunings", "full", "-nodes", "1", "-workload", "npb:EP", "-scale", "3"},
		// A negative slice count, idle limit or retry window.
		{"-impls", "GridMPI", "-tunings", "full", "-reps", "2", "-max-size", "1k", "-slices", "-1"},
		{"-impls", "GridMPI", "-tunings", "full", "-reps", "2", "-max-size", "1k", "-worker-idle-exit", "-1"},
		{"-impls", "GridMPI", "-tunings", "full", "-reps", "2", "-max-size", "1k", "-retry", "-1s"},
		// A profile that cannot be created, refused before the sweep
		// runs and before the cache directory is made.
		{"-cache", cache, "-memprofile", filepath.Join(dir, "missing", "m.prof"), "-impls", "TCP", "-tunings", "default", "-reps", "1", "-max-size", "1k"},
	} {
		// The profile flags come first, so a row may override one.
		cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
		args = append([]string{"-cpuprofile", cpu, "-memprofile", mem}, args...)
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
		for _, p := range []string{cpu, mem, cache} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("args %v: the refused run wrote %s", args, filepath.Base(p))
				os.RemoveAll(p)
			}
		}
	}
}

// TestRunGuidelines: -guidelines appends the self-consistency report
// after the sweep, runs its pattern cells through the same cache, and
// stays deterministic across worker counts.
func TestRunGuidelines(t *testing.T) {
	render := func(workers string) string {
		var out, errOut strings.Builder
		args := []string{"-impls", "TCP,MPICH2", "-tunings", "default",
			"-reps", "2", "-max-size", "4k", "-size", "4k", "-iters", "2",
			"-guidelines", "-workers", workers}
		if err := run(args, &out, &errOut); err != nil {
			// Guideline violations exit nonzero by design; anything else
			// is a real failure.
			if !strings.Contains(err.Error(), "guideline violation") {
				t.Fatalf("run: %v", err)
			}
		}
		// Only the guideline section: the sweep table above it names the
		// worker count.
		_, report, ok := strings.Cut(out.String(), "Guidelines:")
		if !ok {
			t.Fatalf("no guideline report in output:\n%s", out.String())
		}
		return report
	}
	got := render("4")
	if !strings.Contains(got, "8 rules x 2 configurations") {
		t.Errorf("guideline report header missing:\n%s", got)
	}
	if !strings.Contains(got, "self-consistent") && !strings.Contains(got, "VIOLATION") {
		t.Errorf("guideline report carries no verdict:\n%s", got)
	}
	if seq := render("1"); seq != got {
		t.Errorf("guideline output differs between 1 and 4 workers:\n%s\nvs\n%s", seq, got)
	}
}

// TestRunGuidelinesKeepStdoutParseable: with -format json or csv the
// guideline report goes to stderr, so stdout still parses.
func TestRunGuidelinesKeepStdoutParseable(t *testing.T) {
	for _, format := range []string{"json", "csv"} {
		var out, errOut strings.Builder
		args := []string{"-impls", "TCP,MPICH2", "-tunings", "default",
			"-reps", "2", "-max-size", "4k", "-size", "4k", "-iters", "2",
			"-guidelines", "-format", format}
		if err := run(args, &out, &errOut); err != nil && !strings.Contains(err.Error(), "guideline violation") {
			t.Fatalf("%s: run: %v", format, err)
		}
		if format == "json" {
			var results []exp.Result
			if err := json.Unmarshal([]byte(out.String()), &results); err != nil || len(results) != 2 {
				t.Errorf("json: stdout does not parse as the 2 sweep results (%v):\n%s", err, out.String())
			}
		} else if _, err := csv.NewReader(strings.NewReader(out.String())).ReadAll(); err != nil {
			t.Errorf("csv: stdout does not parse (%v):\n%s", err, out.String())
		}
		if strings.Contains(out.String(), "Guidelines:") || !strings.Contains(errOut.String(), "Guidelines:") {
			t.Errorf("%s: guideline report not on stderr alone:\nstdout:\n%s\nstderr:\n%s", format, out.String(), errOut.String())
		}
	}
}

// faultSpec is the tiny seeded plan the fault tests share: a 100ms
// rennes-uplink outage over 2% background loss.
const faultSpec = "seed=7; 20ms down site=rennes; 120ms up site=rennes; 0s loss 0.02"

// TestRunFaultsDeterministicAndCacheable is the fault-replay contract in
// miniature: a seeded faulted sweep is worker-count independent, replays
// bit-for-bit from the disk cache, and keys that cache on the plan — a
// healthy run must never be served a faulted cell.
func TestRunFaultsDeterministicAndCacheable(t *testing.T) {
	dir := t.TempDir()
	render := func(extra ...string) (string, string) {
		var out, errOut strings.Builder
		args := append(append([]string{"-format", "json", "-faults", faultSpec}, extra...),
			tinyArgs[:len(tinyArgs)-2]...) // tinyArgs minus its -workers pair
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("run %v: %v\n%s", extra, err, errOut.String())
		}
		return out.String(), errOut.String()
	}
	seq, _ := render("-workers", "1", "-cache", dir)
	par, _ := render("-workers", "8")
	if seq != par {
		t.Fatal("faulted sweep differs between 1 and 8 workers")
	}
	replay, replayErr := render("-workers", "8", "-cache", dir)
	if replay != seq {
		t.Fatal("cached faulted replay rendered different JSON")
	}
	if !strings.Contains(replayErr, "0 computed, 4 from disk") {
		t.Errorf("faulted replay recomputed cells: %s", replayErr)
	}
	if !strings.Contains(seq, "fault_link_stalls") {
		t.Error("faulted sweep JSON carries no degraded-mode metrics")
	}

	var out, errOut strings.Builder
	if err := run(append([]string{"-format", "json", "-cache", dir}, tinyArgs...), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "4 computed, 0 from disk") {
		t.Errorf("healthy run was served faulted cache entries: %s", errOut.String())
	}
	if strings.Contains(out.String(), "fault_") {
		t.Error("healthy sweep JSON reports fault metrics")
	}
}

// TestRunShardsPartitionAndMerge: two -shard runs split the matrix
// disjointly; merging their cache directories by file copy lets the
// unsharded run replay every cell from disk with output identical to a
// cacheless run.
func TestRunShardsPartitionAndMerge(t *testing.T) {
	merged := t.TempDir()
	totalRows := 0
	for _, shard := range []string{"1/2", "2/2"} {
		dir := t.TempDir()
		var out, errOut strings.Builder
		args := append([]string{"-format", "csv", "-shard", shard, "-cache", dir}, tinyArgs...)
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("shard %s: %v", shard, err)
		}
		totalRows += len(strings.Split(strings.TrimSpace(out.String()), "\n")) - 1
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(merged, e.Name()), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if totalRows != 4 {
		t.Fatalf("shards produced %d rows in total, want the full 4-cell matrix", totalRows)
	}

	render := func(extra ...string) (string, string) {
		var out, errOut strings.Builder
		if err := run(append(append([]string{"-format", "json"}, extra...), tinyArgs...), &out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String(), errOut.String()
	}
	mergedOut, mergedErr := render("-cache", merged)
	directOut, _ := render()
	if mergedOut != directOut {
		t.Error("merged-shard replay differs from the direct run")
	}
	if !strings.Contains(mergedErr, "0 computed, 4 from disk") {
		t.Errorf("merged replay recomputed cells: %s", mergedErr)
	}
}

// newCacheServer starts an in-process sweepd handler over a fresh
// DiskCache directory.
func newCacheServer(t *testing.T) *httptest.Server {
	t.Helper()
	store, err := exp.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(storeHandler(store))
	t.Cleanup(srv.Close)
	return srv
}

// storeHandler is the sweepd handler over store with an empty queue.
func storeHandler(store *exp.DiskCache) http.Handler {
	return exp.NewQueueHandler(exp.NewJobQueue(store, exp.QueueConfig{}), exp.NewCacheServer(store))
}

// TestRunRemoteCache: shard runs publish to one result server; a replay
// through the same server recomputes nothing and renders output
// identical to a serverless run.
func TestRunRemoteCache(t *testing.T) {
	srv := newCacheServer(t)
	for _, shard := range []string{"1/2", "2/2"} {
		var out, errOut strings.Builder
		args := append([]string{"-format", "json", "-shard", shard, "-cache-remote", srv.URL}, tinyArgs...)
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("shard %s: %v\n%s", shard, err, errOut.String())
		}
		if !strings.Contains(errOut.String(), "pushed") {
			t.Errorf("shard %s reported no remote stats: %s", shard, errOut.String())
		}
	}
	var remoteOut, remoteErr strings.Builder
	if err := run(append([]string{"-format", "json", "-cache-remote", srv.URL}, tinyArgs...), &remoteOut, &remoteErr); err != nil {
		t.Fatalf("remote replay: %v\n%s", err, remoteErr.String())
	}
	var directOut, directErr strings.Builder
	if err := run(append([]string{"-format", "json"}, tinyArgs...), &directOut, &directErr); err != nil {
		t.Fatal(err)
	}
	if remoteOut.String() != directOut.String() {
		t.Error("remote replay differs from the direct run")
	}
	if !strings.Contains(remoteErr.String(), "cache: 0 computed") {
		t.Errorf("remote replay recomputed cells: %s", remoteErr.String())
	}
	if !strings.Contains(remoteErr.String(), "remote: 4 hits") {
		t.Errorf("remote replay not served remotely: %s", remoteErr.String())
	}
}

// TestRunPushPull: the one-shot sync modes move a warmed -cache
// directory through a server into a fresh one, which then replays the
// sweep without recomputing and byte-identical to a direct run.
func TestRunPushPull(t *testing.T) {
	srv := newCacheServer(t)
	warmed := t.TempDir()
	var out, errOut strings.Builder
	if err := run(append([]string{"-cache", warmed}, tinyArgs...), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-cache", warmed, "-cache-remote", srv.URL, "-push"}, &out, &errOut); err != nil {
		t.Fatalf("push: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "push: 4 entries scanned: 4 transferred") {
		t.Errorf("push report: %s", out.String())
	}
	pulled := t.TempDir()
	out.Reset()
	if err := run([]string{"-cache", pulled, "-cache-remote", srv.URL, "-pull"}, &out, &errOut); err != nil {
		t.Fatalf("pull: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "pull: 4 entries scanned: 4 transferred") {
		t.Errorf("pull report: %s", out.String())
	}
	var replayOut, replayErr, directOut strings.Builder
	if err := run(append([]string{"-format", "json", "-cache", pulled}, tinyArgs...), &replayOut, &replayErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(replayErr.String(), "0 computed, 4 from disk") {
		t.Errorf("pulled directory did not serve the replay: %s", replayErr.String())
	}
	if err := run(append([]string{"-format", "json"}, tinyArgs...), &directOut, &errOut); err != nil {
		t.Fatal(err)
	}
	if replayOut.String() != directOut.String() {
		t.Error("pulled replay differs from the direct run")
	}

	// Sync modes need both sides named.
	for _, args := range [][]string{
		{"-push"},
		{"-pull", "-cache", warmed},
		{"-push", "-cache-remote", srv.URL},
	} {
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunCacheEvict: -cache-evict reports an eviction pass on stderr; a
// generous age bound removes nothing.
func TestRunCacheEvict(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	args := append([]string{"-cache", dir, "-cache-evict", "24h"}, tinyArgs...)
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "cache evict: removed 0 of 4 entries") {
		t.Errorf("eviction summary missing: %s", errOut.String())
	}
}

// TestRunRay2MeshTopologies: the default collapses to the canonical
// four-site testbed; an explicit -topo layout is honored, not silently
// replaced; -placement and -faults reach the application.
func TestRunRay2MeshTopologies(t *testing.T) {
	var out, errOut strings.Builder
	// CSV output: the topology column always shows the testbed that ran.
	base := []string{"-format", "csv", "-impls", "MPICH2", "-tunings", "tcp", "-workload", "ray2mesh:rennes", "-scale", "0.01"}
	if err := run(append([]string{"-topo", "rennes:1+nancy:1"}, base...), &out, &errOut); err != nil {
		t.Fatalf("explicit ray2mesh layout: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "rennes+nancy x1") {
		t.Errorf("explicit layout not honored:\n%s", out.String())
	}
	out.Reset()
	if err := run(base, &out, &errOut); err != nil {
		t.Fatalf("default ray2mesh: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "nancy+rennes+sophia+toulouse x8") {
		t.Errorf("default did not collapse to the canonical testbed:\n%s", out.String())
	}
	out.Reset()
	if err := run(append([]string{"-placement", "round-robin"}, base...), &out, &errOut); err != nil {
		t.Fatalf("ray2mesh under -placement: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "nancy+rennes+sophia+toulouse x8 place=round-robin") {
		t.Errorf("-placement not carried onto the canonical testbed:\n%s", out.String())
	}
	var faulted strings.Builder
	if err := run(append([]string{"-format", "json", "-faults", "20ms down site=rennes; 120ms up site=rennes"}, base[2:]...), &faulted, &errOut); err != nil {
		t.Fatalf("ray2mesh under -faults: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(faulted.String(), `"fault_link_stalls"`) || !strings.Contains(faulted.String(), `"total_rays"`) {
		t.Errorf("faulted ray2mesh result lacks its fault or ray metrics:\n%s", faulted.String())
	}
}

// TestRunAsymmetricTopology: a per-site -topo layout runs end to end.
func TestRunAsymmetricTopology(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-impls", "GridMPI", "-tunings", "tcp", "-topo", "rennes:2+nancy:1+sophia:1",
		"-workload", "pattern:bcast", "-size", "4k", "-iters", "2"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "rennes:2+nancy:1+sophia:1") && !strings.Contains(out.String(), "1 experiments") {
		t.Errorf("asymmetric sweep output:\n%s", out.String())
	}
}

// TestRunCachePersists: a second invocation against the same -cache
// directory recomputes nothing and renders identical output.
func TestRunCachePersists(t *testing.T) {
	dir := t.TempDir()
	render := func() (string, string) {
		var out, errOut strings.Builder
		args := append([]string{"-format", "json", "-cache", dir}, tinyArgs...)
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String(), errOut.String()
	}
	first, firstErr := render()
	if !strings.Contains(firstErr, "4 computed, 0 from disk") {
		t.Errorf("first run cache summary: %s", firstErr)
	}
	second, secondErr := render()
	if first != second {
		t.Fatal("cached rerun rendered different JSON")
	}
	if !strings.Contains(secondErr, "0 computed, 4 from disk") {
		t.Errorf("second run recomputed cells: %s", secondErr)
	}
}

// newSweepdServer starts an in-process sweepd control plane (job queue
// over a fresh store) for fleet tests. It advertises a 10 ms poll, since
// a test worker idles up to 300 polls before it exits.
func newSweepdServer(t *testing.T) *httptest.Server {
	t.Helper()
	store, err := exp.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := exp.NewJobQueue(store, exp.QueueConfig{TTL: 30 * time.Second, Slices: 4, Poll: 10 * time.Millisecond})
	srv := httptest.NewServer(exp.NewQueueHandler(q, exp.NewCacheServer(store)))
	t.Cleanup(srv.Close)
	return srv
}

// TestRunFleetSubmitMatchesLocal: -submit against a sweepd with one
// -worker invocation produces output byte-identical to a local run of
// the same matrix, and resubmission computes nothing.
func TestRunFleetSubmitMatchesLocal(t *testing.T) {
	srv := newSweepdServer(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var workerOut, workerErr strings.Builder
		args := []string{"-worker", srv.URL, "-worker-id", "w1", "-worker-idle-exit", "300"}
		if err := run(args, &workerOut, &workerErr); err != nil {
			t.Errorf("worker: %v\n%s", err, workerErr.String())
		}
	}()

	var fleetOut, fleetErr strings.Builder
	if err := run(append([]string{"-submit", srv.URL, "-format", "json"}, tinyArgs...), &fleetOut, &fleetErr); err != nil {
		t.Fatalf("submit: %v\n%s", err, fleetErr.String())
	}
	var directOut, directErr strings.Builder
	if err := run(append([]string{"-format", "json"}, tinyArgs...), &directOut, &directErr); err != nil {
		t.Fatalf("direct: %v", err)
	}
	if fleetOut.String() != directOut.String() {
		t.Errorf("fleet output differs from the local run:\nfleet:  %s\ndirect: %s",
			fleetOut.String(), directOut.String())
	}

	// Resubmission: the store already holds every cell, so the job is
	// done on arrival — same bytes, nothing computed, no worker needed.
	var reOut, reErr strings.Builder
	if err := run(append([]string{"-submit", srv.URL, "-format", "json"}, tinyArgs...), &reOut, &reErr); err != nil {
		t.Fatalf("resubmit: %v\n%s", err, reErr.String())
	}
	if reOut.String() != directOut.String() {
		t.Error("resubmitted job renders different bytes")
	}
	if !strings.Contains(reErr.String(), "4 already cached") {
		t.Errorf("resubmission recomputed cells: %s", reErr.String())
	}
	wg.Wait()
}

// TestRunFleetDetachAndBadCombos: -detach prints the job ID and
// returns; the fleet flags refuse contradictory combinations.
func TestRunFleetDetachAndBadCombos(t *testing.T) {
	srv := newSweepdServer(t)
	var out, errOut strings.Builder
	if err := run(append([]string{"-submit", srv.URL, "-detach"}, tinyArgs...), &out, &errOut); err != nil {
		t.Fatalf("detach submit: %v", err)
	}
	if id := strings.TrimSpace(out.String()); !regexp.MustCompile(`^j[0-9]{4,}$`).MatchString(id) {
		t.Errorf("-detach printed %q, want a bare job ID", id)
	}
	for _, args := range [][]string{
		{"-submit", srv.URL, "-worker", srv.URL},
		{"-submit", srv.URL, "-shard", "1/2"},
		{"-submit", srv.URL, "-guidelines"},
		{"-submit", "not-a-url"},
		{"-worker", "not-a-url"},
		{"-worker", srv.URL, "-workers", "4", "-worker-idle-exit", "1"},
	} {
		var out, errOut strings.Builder
		if err := run(append(append([]string{}, args...), tinyArgs...), &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunFleetModesWriteProfiles: a fleet worker and a sync each write
// the CPU and heap profiles they are asked for, and the worker reports
// what its runner served at exit.
func TestRunFleetModesWriteProfiles(t *testing.T) {
	srv := newSweepdServer(t)
	var out, errOut strings.Builder
	if err := run(append([]string{"-submit", srv.URL, "-detach"}, tinyArgs...), &out, &errOut); err != nil {
		t.Fatalf("detach submit: %v", err)
	}
	for _, c := range []struct {
		args []string
		want string // in stdout and stderr
	}{
		{[]string{"-worker", srv.URL, "-worker-idle-exit", "1"}, "cache: 4 computed, 0 from store, 0 from memory (4 distinct experiments)"},
		{[]string{"-pull", "-push", "-cache", t.TempDir(), "-cache-remote", srv.URL}, "pull: 4 entries scanned: 4 transferred"},
	} {
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
		var out, errOut strings.Builder
		if err := run(append(c.args, "-cpuprofile", cpu, "-memprofile", mem), &out, &errOut); err != nil {
			t.Fatalf("%v: %v\n%s", c.args, err, errOut.String())
		}
		if !strings.Contains(out.String()+errOut.String(), c.want) {
			t.Errorf("%v printed no %q:\n%s%s", c.args, c.want, out.String(), errOut.String())
		}
		for _, p := range []string{cpu, mem} {
			if st, err := os.Stat(p); err != nil || st.Size() == 0 {
				t.Errorf("%v wrote no %s", c.args, filepath.Base(p))
			}
		}
	}
}

// TestRunPushPartialFailureExitsNonzero: a server that 422s entries
// mid-sync must surface in the report line and fail the invocation.
func TestRunPushPartialFailureExitsNonzero(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	if err := run(append([]string{"-cache", dir}, tinyArgs...), &out, &errOut); err != nil {
		t.Fatalf("warm-up sweep: %v", err)
	}

	// A store whose ingest rejects every other PUT.
	store, err := exp.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inner := storeHandler(store)
	var mu sync.Mutex
	puts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			mu.Lock()
			puts++
			reject := puts%2 == 0
			mu.Unlock()
			if reject {
				http.Error(w, "synthetic ingest refusal", http.StatusUnprocessableEntity)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var pushOut, pushErr strings.Builder
	err = run([]string{"-cache", dir, "-cache-remote", srv.URL, "-push"}, &pushOut, &pushErr)
	if err == nil || !strings.Contains(err.Error(), "failed to sync") {
		t.Fatalf("partial-failure push returned %v, want a failed-to-sync error", err)
	}
	if !strings.Contains(pushOut.String(), "2 failed") {
		t.Errorf("push report hides the failures: %q", pushOut.String())
	}
}
