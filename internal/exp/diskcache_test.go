package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/mpiimpl"
)

func entryPath(dir string, e Experiment) string {
	return filepath.Join(dir, e.Fingerprint()+".json")
}

// TestDiskCacheRoundTrip: a result computed by one runner is served,
// byte-identical and marked Cached, to a fresh runner sharing the cache
// directory — the cross-process persistence the in-memory cache lacks.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := tinyPingPong(mpiimpl.GridMPI, Tuning{TCP: true})

	first := NewRunnerStore(2, store).Run(e)
	if first.Cached {
		t.Error("first run reported a cache hit")
	}
	if _, err := os.Stat(entryPath(dir, e)); err != nil {
		t.Fatalf("no cache entry written: %v", err)
	}

	r2 := NewRunnerStore(2, store)
	second := r2.Run(e)
	if !second.Cached {
		t.Error("fresh runner did not hit the disk cache")
	}
	if got := r2.CacheStats(); got.Disk != 1 || got.Computed != 0 {
		t.Errorf("stats = %+v, want exactly one disk load and nothing computed", got)
	}
	a := MarshalResults([]Result{first})
	b := MarshalResults([]Result{second})
	if !bytes.Equal(a, b) {
		t.Errorf("disk round trip changed the result:\n%s\nvs\n%s", a, b)
	}
	// A repeat on the same runner is a memory serve, not a second load.
	r2.Run(e)
	if got := r2.CacheStats(); got.Memory != 1 || got.Disk != 1 {
		t.Errorf("stats after repeat = %+v, want one memory serve", got)
	}
}

// TestDiskCacheCorruptEntriesAreMisses: garbage, truncated JSON, and
// entries whose stored experiment does not hash back to the requested
// fingerprint are all re-run (and the entry repaired), never trusted.
func TestDiskCacheCorruptEntriesAreMisses(t *testing.T) {
	e := tinyPingPong(mpiimpl.MPICH2, Tuning{TCP: true})
	good := Run(e)
	blob := MarshalResults([]Result{good})

	cases := map[string][]byte{
		"garbage":     []byte("not json at all"),
		"truncated":   blob[:len(blob)/2],
		"empty":       {},
		"wrong-exp":   []byte(`{"experiment":{"impl":"MPICH2","tuning":{"tcp":false,"mpi":false},"topology":{"sites":["rennes"],"nodes_per_site":2},"workload":{"kind":"pingpong","sizes":[4],"reps":1}},"elapsed":1,"census":{}}`),
		"wrong-shape": []byte(`[1,2,3]`),
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := NewDiskCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entryPath(dir, e), corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := store.Load(e.Fingerprint()); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			r := NewRunnerStore(1, store)
			res := r.Run(e)
			if res.Cached {
				t.Error("corrupt entry was served from cache")
			}
			if got := r.CacheStats(); got.Computed != 1 || got.Disk != 0 {
				t.Errorf("stats = %+v, want a recompute", got)
			}
			// The recompute must repair the entry in place.
			if repaired, ok := store.Load(e.Fingerprint()); !ok {
				t.Error("entry not repaired after recompute")
			} else if !bytes.Equal(MarshalResults([]Result{repaired}), MarshalResults([]Result{good})) {
				t.Error("repaired entry differs from a direct run")
			}
		})
	}
}

// TestDiskCacheConcurrentSingleExecution hammers one fingerprint through
// a store-backed runner: the experiment runs once, one entry lands on
// disk, and every caller gets the same bytes.
func TestDiskCacheConcurrentSingleExecution(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerStore(4, store)
	e := tinyPingPong(mpiimpl.OpenMPI, Tuning{TCP: true})
	results := make([]Result, 16)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Run(e)
		}(i)
	}
	wg.Wait()
	if got := r.CacheStats(); got.Computed != 1 {
		t.Errorf("experiment executed %d times, want exactly once", got.Computed)
	}
	ref := MarshalResults([]Result{results[0]})
	for i, res := range results {
		if got := MarshalResults([]Result{res}); !bytes.Equal(got, ref) {
			t.Fatalf("goroutine %d saw different result bytes", i)
		}
	}
	if n, err := store.Len(); err != nil || n != 1 {
		t.Errorf("store holds %d entries (err=%v), want 1", n, err)
	}
}

// TestDiskCacheSkipsFailedRuns: an Err result describes this process,
// not a measurement; it must not be persisted (a later run may not share
// the defect), while still being served from the in-memory cache.
func TestDiskCacheSkipsFailedRuns(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerStore(1, store)
	bad := Experiment{Impl: "LAM/MPI", Topology: Grid(1), Workload: PingPongWorkload(tinySizes, 1)}
	if res := r.Run(bad); res.Err == "" {
		t.Fatal("bogus implementation did not fail")
	}
	if n, _ := store.Len(); n != 0 {
		t.Errorf("failed run persisted: %d entries", n)
	}
	if res := r.Run(bad); !res.Cached {
		t.Error("failed run not served from the in-memory cache")
	}
}

// TestNewDiskCacheRejectsEmptyDir: an unset -cache flag must be handled
// by the caller, never turned into a cache rooted at "".
func TestNewDiskCacheRejectsEmptyDir(t *testing.T) {
	if _, err := NewDiskCache(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestDiskCacheSchemaVersion: entries from a foreign schema generation
// miss cleanly (re-run and overwritten); entries written before
// versioning existed (no schema field) still hit.
func TestDiskCacheSchemaVersion(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := tinyPingPong(mpiimpl.GridMPI, Tuning{})
	good := Run(e)

	// Current schema: round-trips.
	if err := store.Store(e.Fingerprint(), good); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(entryPath(dir, e))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(`"schema": 1`)) {
		t.Error("stored entry carries no schema field")
	}
	if _, ok := store.Load(e.Fingerprint()); !ok {
		t.Fatal("current-schema entry missed")
	}

	// A future schema generation must be a miss, not a corrupt read.
	future := bytes.Replace(blob, []byte(`"schema": 1`), []byte(`"schema": 99`), 1)
	if err := os.WriteFile(entryPath(dir, e), future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(e.Fingerprint()); ok {
		t.Error("foreign-schema entry served as a hit")
	}
	r := NewRunnerStore(1, store)
	if res := r.Run(e); res.Cached {
		t.Error("foreign-schema entry not recomputed")
	}

	// A pre-versioning entry (a bare Result, no schema field) is
	// version 1 — exactly what the old code wrote.
	legacy, err := json.MarshalIndent(good, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryPath(dir, e), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(e.Fingerprint()); !ok {
		t.Error("pre-versioning entry missed")
	}
}

// TestDiskCacheEvict: the age bound removes stale entries, the size
// bound removes oldest-first, and fresh entries survive both.
func TestDiskCacheEvict(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	exps := []Experiment{
		tinyPingPong(mpiimpl.RawTCP, Tuning{}),
		tinyPingPong(mpiimpl.MPICH2, Tuning{}),
		tinyPingPong(mpiimpl.GridMPI, Tuning{}),
	}
	NewRunnerStore(2, store).RunAll(exps)
	if n, _ := store.Len(); n != 3 {
		t.Fatalf("store holds %d entries, want 3", n)
	}
	// Back-date the first two entries by a week.
	old := time.Now().Add(-7 * 24 * time.Hour)
	for _, e := range exps[:2] {
		if err := os.Chtimes(entryPath(dir, e), old, old); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := store.Evict(EvictPolicy{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 3 || rep.Removed != 2 {
		t.Errorf("age pass = %+v, want 2 of 3 removed", rep)
	}
	if _, ok := store.Load(exps[2].Fingerprint()); !ok {
		t.Error("fresh entry evicted by the age bound")
	}

	// Size bound: refill, then bound to roughly one entry's size —
	// oldest-first removal keeps the newest.
	NewRunnerStore(2, store).RunAll(exps)
	info, err := os.Stat(entryPath(dir, exps[0]))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range exps[:2] {
		ts := time.Now().Add(-time.Duration(i+1) * time.Hour)
		if err := os.Chtimes(entryPath(dir, e), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = store.Evict(EvictPolicy{MaxBytes: info.Size() + 16})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed != 2 || rep.RemainingBytes > info.Size()+16 {
		t.Errorf("size pass = %+v, want 2 removed within the bound", rep)
	}
	if _, ok := store.Load(exps[2].Fingerprint()); !ok {
		t.Error("newest entry evicted by the size bound")
	}
}

// TestDiskCacheIgnoresStrayFiles: files in the cache directory that are
// not fingerprint-named entries — a user's notes.json, an upper-case hex
// name — are not counted by Len, not sampled by Verify, and never deleted
// by Evict, however old they are.
func TestDiskCacheIgnoresStrayFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	NewRunnerStore(1, store).RunAll([]Experiment{tinyPingPong(mpiimpl.RawTCP, Tuning{})})
	stray := []string{"notes.json", "ABCDEF0123456789.json"}
	old := time.Now().Add(-48 * time.Hour)
	for _, name := range stray {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(`{"note": "not a cache entry"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := store.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1", n, err)
	}
	if fps, err := store.Fingerprints(); err != nil || len(fps) != 1 {
		t.Errorf("Fingerprints = %v, %v; want 1", fps, err)
	}
	rep, err := store.Verify(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 1 || rep.Sampled != 1 || rep.Unreadable != 0 || !rep.OK() {
		t.Errorf("Verify = %s; want 1 of 1 entries sampled, none unreadable", rep)
	}
	ev, err := store.Evict(EvictPolicy{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Scanned != 1 || ev.Removed != 0 {
		t.Errorf("Evict = %s; want 0 of 1 entries removed", ev)
	}
	for _, name := range stray {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("Evict deleted the stray file %s: %v", name, err)
		}
	}
}

// TestParseEvictPolicy covers the CLI spec syntax.
func TestParseEvictPolicy(t *testing.T) {
	p, err := ParseEvictPolicy("720h,512M")
	if err != nil || p.MaxAge != 720*time.Hour || p.MaxBytes != 512<<20 {
		t.Errorf("ParseEvictPolicy(720h,512M) = %+v, %v", p, err)
	}
	if p, err := ParseEvictPolicy("96h"); err != nil || p.MaxAge != 96*time.Hour || p.MaxBytes != 0 {
		t.Errorf("age-only = %+v, %v", p, err)
	}
	if p, err := ParseEvictPolicy("1G"); err != nil || p.MaxBytes != 1<<30 || p.MaxAge != 0 {
		t.Errorf("size-only = %+v, %v", p, err)
	}
	// A lowercase size suffix is a size, as in every other size flag —
	// never a minutes age bound.
	if p, err := ParseEvictPolicy("512m"); err != nil || p.MaxBytes != 512<<20 || p.MaxAge != 0 {
		t.Errorf("lowercase size = %+v, %v", p, err)
	}
	for _, bad := range []string{"", ",", "-3h", "0", "x"} {
		if _, err := ParseEvictPolicy(bad); err == nil {
			t.Errorf("ParseEvictPolicy(%q) accepted", bad)
		}
	}
}
