package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mpiimpl"
)

// newCacheServer starts an in-process cached server over a fresh
// directory and returns it with its backing store.
func newCacheServer(t *testing.T) (*httptest.Server, *DiskCache) {
	t.Helper()
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewCacheHandler(store))
	t.Cleanup(srv.Close)
	return srv, store
}

// envelope serializes one result as the wire/disk schema-version
// envelope, optionally overriding the schema generation.
func envelope(t *testing.T, res Result, schema int) []byte {
	t.Helper()
	blob, err := json.Marshal(diskEntry{Schema: schema, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func doPut(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestCacheHandlerServesAndIngests: the full GET/HEAD/PUT protocol,
// including the ingest re-verification that keeps a poisoned or
// foreign-generation peer out of the store.
func TestCacheHandlerServesAndIngests(t *testing.T) {
	srv, store := newCacheServer(t)
	e := tinyPingPong(mpiimpl.GridMPI, Tuning{TCP: true})
	fp := e.Fingerprint()
	res := Run(e)
	entryURL := srv.URL + resultsPath + "/" + fp

	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v, %v", resp, err)
	}
	// Empty store: index is [], the entry is absent.
	if resp, err := http.Get(srv.URL + resultsPath); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("index = %v, %v", resp, err)
	} else {
		var fps []string
		if err := json.NewDecoder(resp.Body).Decode(&fps); err != nil || len(fps) != 0 {
			t.Errorf("empty-store index = %v, %v", fps, err)
		}
		resp.Body.Close()
	}
	for _, method := range []string{http.MethodGet, http.MethodHead} {
		req, _ := http.NewRequest(method, entryURL, nil)
		if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s of a missing entry = %v, %v", method, resp.Status, err)
		}
	}

	// Ingest, then read back.
	if resp := doPut(t, entryURL, envelope(t, res, DiskSchemaVersion)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %s", resp.Status)
	}
	stored, ok := store.Load(fp)
	if !ok {
		t.Fatal("ingested entry not loadable from the server's directory")
	}
	if !bytes.Equal(MarshalResults([]Result{stored}), MarshalResults([]Result{res})) {
		t.Error("ingested entry differs from the pushed result")
	}
	resp, err := http.Get(entryURL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after PUT = %v, %v", resp, err)
	}
	if got := resp.Header.Get(schemaHeader); got != fmt.Sprint(DiskSchemaVersion) {
		t.Errorf("schema header = %q", got)
	}
	var entry diskEntry
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		t.Fatalf("served entry unparsable: %v", err)
	}
	resp.Body.Close()
	if got := entry.Exp.Fingerprint(); got != fp {
		t.Errorf("served entry hashes to %s, want %s", got, fp)
	}
	if resp, err := http.Head(entryURL); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD after PUT = %v, %v", resp, err)
	}
	if resp, err := http.Get(srv.URL + resultsPath); err != nil {
		t.Fatal(err)
	} else {
		var fps []string
		if err := json.NewDecoder(resp.Body).Decode(&fps); err != nil || len(fps) != 1 || fps[0] != fp {
			t.Errorf("index = %v, %v, want [%s]", fps, err, fp)
		}
		resp.Body.Close()
	}

	// Ingest rejections: everything answers 422 and stores nothing.
	other := tinyPingPong(mpiimpl.MPICH2, Tuning{})
	rejects := map[string][]byte{
		"garbage":           []byte("not json"),
		"foreign-schema":    envelope(t, res, DiskSchemaVersion+1),
		"wrong-fingerprint": envelope(t, Run(other), DiskSchemaVersion),
		"wrong-shape":       []byte(`[1,2,3]`),
	}
	victim := srv.URL + resultsPath + "/" + strings.Repeat("0", 16)
	for name, body := range rejects {
		if resp := doPut(t, victim, body); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("PUT %s = %s, want 422", name, resp.Status)
		}
	}
	// An oversized body is refused before it is parsed.
	if resp := doPut(t, victim, make([]byte, maxEntryBytes+1)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized PUT = %s, want 413", resp.Status)
	}
	if _, ok := store.Load(strings.Repeat("0", 16)); ok {
		t.Error("a rejected PUT reached the store")
	}

	// Path hygiene: anything that is not a fingerprint cannot name an
	// entry, whatever the method.
	for _, bad := range []string{"UPPERCASE0000000", "short", "..%2f..%2fetc", strings.Repeat("a", 17)} {
		if resp, err := http.Get(srv.URL + resultsPath + "/" + bad); err != nil || resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %q = %v, %v, want 404", bad, resp.Status, err)
		}
	}
	// A corrupt file on the server's own disk is served to nobody.
	if err := os.WriteFile(filepath.Join(store.Dir(), fp+".json"), []byte("rotted"), 0o644); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(entryURL); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET of a corrupt server entry = %v, %v, want 404", resp.Status, err)
	}
}

// TestCacheHandlerConcurrentPutIdempotent: many writers racing on one
// fingerprint (shard overlap, retries) all succeed and leave exactly one
// committed, loadable entry.
func TestCacheHandlerConcurrentPutIdempotent(t *testing.T) {
	srv, store := newCacheServer(t)
	e := tinyPingPong(mpiimpl.OpenMPI, Tuning{})
	fp := e.Fingerprint()
	body := envelope(t, Run(e), DiskSchemaVersion)
	url := srv.URL + resultsPath + "/" + fp

	var wg sync.WaitGroup
	codes := make([]int, 16)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusNoContent {
			t.Errorf("writer %d got %d, want 204", i, code)
		}
	}
	if _, ok := store.Load(fp); !ok {
		t.Fatal("entry not loadable after the race")
	}
	if n, err := store.Len(); err != nil || n != 1 {
		t.Errorf("store holds %d entries (err=%v), want exactly 1", n, err)
	}
}

// TestRemoteStoreReadThroughWriteBehind: a store computes through one
// machine, a second machine with an empty local tier replays everything
// from the server — and its tier is warm afterwards, so a third pass
// makes no round trips at all.
func TestRemoteStoreReadThroughWriteBehind(t *testing.T) {
	srv, _ := newCacheServer(t)
	exps := []Experiment{
		tinyPingPong(mpiimpl.GridMPI, Tuning{}),
		tinyPingPong(mpiimpl.MPICH2, Tuning{TCP: true}),
	}

	// Machine A: compute and publish (write-behind into its own tier too).
	tierA, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeA, err := NewRemoteStore(srv.URL, tierA)
	if err != nil {
		t.Fatal(err)
	}
	first := NewRunnerStore(2, storeA).RunAll(exps)
	if got := storeA.Stats(); got.Pushes != int64(len(exps)) || got.Errors != 0 {
		t.Errorf("publish stats = %+v, want %d pushes", got, len(exps))
	}
	if n, _ := tierA.Len(); n != len(exps) {
		t.Errorf("local tier holds %d entries, want %d", n, len(exps))
	}

	// Machine B: empty tier, everything arrives from the server.
	tierB, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := NewRemoteStore(srv.URL, tierB)
	if err != nil {
		t.Fatal(err)
	}
	rB := NewRunnerStore(2, storeB)
	second := rB.RunAll(exps)
	if got := rB.CacheStats(); got.Computed != 0 {
		t.Errorf("machine B computed %d cells, want 0", got.Computed)
	}
	if got := storeB.Stats(); got.RemoteHits != int64(len(exps)) || got.Errors != 0 {
		t.Errorf("machine B stats = %+v, want %d remote hits", got, len(exps))
	}
	if !bytes.Equal(MarshalResults(first), MarshalResults(second)) {
		t.Error("remote replay changed the results")
	}

	// Machine B again, fresh runner on the same tier: pure local serves.
	storeB2, err := NewRemoteStore(srv.URL, tierB)
	if err != nil {
		t.Fatal(err)
	}
	NewRunnerStore(2, storeB2).RunAll(exps)
	if got := storeB2.Stats(); got.LocalHits != int64(len(exps)) || got.RemoteHits != 0 {
		t.Errorf("warm-tier stats = %+v, want %d local hits and no round trips", got, len(exps))
	}
}

// TestRemoteStoreServerDownDegradesToCompute: a dead server never fails
// a sweep — every cell is computed locally, results match a storeless
// run, and the degradation is visible in the error counter.
func TestRemoteStoreServerDownDegradesToCompute(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing listens here any more

	store, err := NewRemoteStore(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	exps := []Experiment{
		tinyPingPong(mpiimpl.GridMPI, Tuning{}),
		tinyPingPong(mpiimpl.RawTCP, Tuning{TCP: true}),
	}
	r := NewRunnerStore(2, store)
	got := r.RunAll(exps)
	want := NewRunner(2).RunAll(exps)
	if !bytes.Equal(MarshalResults(got), MarshalResults(want)) {
		t.Error("degraded run produced different results")
	}
	if stats := r.CacheStats(); stats.Computed != int64(len(exps)) {
		t.Errorf("computed %d cells, want all %d", stats.Computed, len(exps))
	}
	// One failed fetch and one failed publish per experiment.
	if stats := store.Stats(); stats.Errors != 2*int64(len(exps)) || stats.RemoteHits != 0 || stats.Pushes != 0 {
		t.Errorf("degradation not counted: %+v", stats)
	}
}

// TestRemoteStoreBadEntriesMissCleanly: a server responding with
// garbage, a foreign schema generation, a mismatched experiment, or a
// 500 produces clean misses — the runner recomputes, results are
// unaffected, and each defect is counted.
func TestRemoteStoreBadEntriesMissCleanly(t *testing.T) {
	e := tinyPingPong(mpiimpl.GridMPI, Tuning{TCP: true})
	good := Run(e)
	other := tinyPingPong(mpiimpl.MPICH2, Tuning{})
	cases := map[string]http.HandlerFunc{
		"garbage": func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("not json at all"))
		},
		"foreign-schema": func(w http.ResponseWriter, r *http.Request) {
			w.Write(envelope(t, good, DiskSchemaVersion+7))
		},
		"foreign-schema-header": func(w http.ResponseWriter, r *http.Request) {
			// The body would verify; the header announces a foreign
			// store and must be believed without parsing it.
			w.Header().Set(schemaHeader, "99")
			w.Write(envelope(t, good, DiskSchemaVersion))
		},
		"wrong-experiment": func(w http.ResponseWriter, r *http.Request) {
			w.Write(envelope(t, Run(other), DiskSchemaVersion))
		},
		"server-error": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		},
	}
	for name, handler := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(handler)
			defer srv.Close()
			store, err := NewRemoteStore(srv.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := store.Load(e.Fingerprint()); ok {
				t.Fatal("defective entry served as a hit")
			}
			if stats := store.Stats(); stats.Errors != 1 {
				t.Errorf("defect not counted: %+v", stats)
			}
			res := NewRunnerStore(1, store).Run(e)
			if res.Cached {
				t.Error("defective entry reached the runner as a cache hit")
			}
			if !bytes.Equal(MarshalResults([]Result{res}), MarshalResults([]Result{good})) {
				t.Error("recomputed result differs from a direct run")
			}
		})
	}
}

// TestRemoteStatsString: the headline hit count includes both tiers (a
// warm local tier must not read as "0 hits"), and local write failures
// are reported apart from server errors.
func TestRemoteStatsString(t *testing.T) {
	warm := RemoteStats{LocalHits: 4, Misses: 1, Pushes: 2}
	if got, want := warm.String(), "remote: 4 hits (4 from the local tier), 1 misses, 2 pushed, 0 errors"; got != want {
		t.Errorf("warm tier: %q, want %q", got, want)
	}
	sick := RemoteStats{RemoteHits: 3, LocalErrors: 2}
	if got := sick.String(); !strings.Contains(got, "3 hits (0 from the local tier)") ||
		!strings.Contains(got, "2 local-tier write failures") {
		t.Errorf("local failures not reported: %q", got)
	}
}

// TestRemoteStoreCleanMissIsNotAnError: a healthy server without the
// entry counts as a miss, not a degradation.
func TestRemoteStoreCleanMissIsNotAnError(t *testing.T) {
	srv, _ := newCacheServer(t)
	store, err := NewRemoteStore(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := tinyPingPong(mpiimpl.GridMPI, Tuning{})
	if _, ok := store.Load(e.Fingerprint()); ok {
		t.Fatal("empty server served a hit")
	}
	if stats := store.Stats(); stats.Misses != 1 || stats.Errors != 0 {
		t.Errorf("stats = %+v, want one clean miss", stats)
	}
}

// TestRemoteStoreMissKeepsConnection: a clean miss must leave its
// keep-alive connection reusable, or every miss of a sweep redials the
// server (and leaves a socket in TIME_WAIT). Twenty sequential misses
// open one connection.
func TestRemoteStoreMissKeepsConnection(t *testing.T) {
	cache, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(NewCacheHandler(cache))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	store, err := NewRemoteStore(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp := tinyPingPong(mpiimpl.GridMPI, Tuning{}).Fingerprint()
	for i := 0; i < 20; i++ {
		if _, ok := store.Load(fp); ok {
			t.Fatal("empty server served a hit")
		}
	}
	if stats := store.Stats(); stats.Misses != 20 || stats.Errors != 0 {
		t.Fatalf("stats = %+v, want 20 clean misses", stats)
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("20 sequential misses opened %d connections, want 1", n)
	}
}

// TestNewRemoteStoreRejectsBadURLs: misconfiguration fails at wiring
// time, not as a silent all-miss sweep.
func TestNewRemoteStoreRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"", "stately:8077", "ftp://host", "http://", ":://nope"} {
		if _, err := NewRemoteStore(bad, nil); err == nil {
			t.Errorf("NewRemoteStore(%q) accepted", bad)
		}
	}
}

// TestShardedSweepThroughRemoteMatchesLocal is the acceptance check in
// miniature: two shard workers sharing one cached server cover the full
// matrix between them, and a replay through the same server recomputes
// nothing while serving 100% from the remote tier, byte-identical to a
// direct local run.
func TestShardedSweepThroughRemoteMatchesLocal(t *testing.T) {
	srv, serverStore := newCacheServer(t)
	sweep := Sweep{
		Impls:      []string{mpiimpl.GridMPI, mpiimpl.MPICH2},
		Tunings:    []Tuning{{}, {TCP: true}},
		Topologies: []Topology{Grid(1)},
		Workloads:  []Workload{PingPongWorkload(tinySizes, 3)},
	}
	exps := sweep.Experiments()
	direct := NewRunner(2).RunAll(exps)

	covered := 0
	for _, shard := range []Shard{{Index: 1, Count: 2}, {Index: 2, Count: 2}} {
		store, err := NewRemoteStore(srv.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		part := shard.Select(exps)
		covered += len(part)
		NewRunnerStore(2, store).RunAll(part)
		if got := store.Stats(); got.Pushes != int64(len(part)) {
			t.Errorf("shard %s pushed %d of %d results", shard, got.Pushes, len(part))
		}
	}
	if covered != len(exps) {
		t.Fatalf("shards covered %d of %d experiments", covered, len(exps))
	}
	if n, _ := serverStore.Len(); n != len(exps) {
		t.Fatalf("server holds %d entries, want %d", n, len(exps))
	}

	store, err := NewRemoteStore(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerStore(2, store)
	replay := r.RunAll(exps)
	if stats := r.CacheStats(); stats.Computed != 0 {
		t.Errorf("replay computed %d cells, want 0", stats.Computed)
	}
	if stats := store.Stats(); stats.RemoteHits != int64(len(exps)) || stats.Errors != 0 {
		t.Errorf("replay stats = %+v, want all %d served remotely", stats, len(exps))
	}
	if !bytes.Equal(MarshalResults(replay), MarshalResults(direct)) {
		t.Error("sharded-through-server replay differs from the direct local run")
	}
}

// TestPushPullRoundTrip: the explicit one-shot syncs move exactly the
// missing entries in each direction, are idempotent, and require a
// local tier.
func TestPushPullRoundTrip(t *testing.T) {
	srv, serverStore := newCacheServer(t)
	exps := []Experiment{
		tinyPingPong(mpiimpl.GridMPI, Tuning{}),
		tinyPingPong(mpiimpl.MPICH2, Tuning{TCP: true}),
		tinyPingPong(mpiimpl.RawTCP, Tuning{}),
	}

	// A warmed local directory, never connected to the server. A stray
	// non-entry .json file must not enter the sync (it would fail every
	// pass forever, since no transfer can ever make it converge).
	srcDir := t.TempDir()
	src, err := NewDiskCache(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	NewRunnerStore(2, src).RunAll(exps)
	if err := os.WriteFile(filepath.Join(srcDir, "notes.json"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fps, err := src.Fingerprints(); err != nil || len(fps) != len(exps) {
		t.Fatalf("Fingerprints = %v, %v, want the %d real entries only", fps, err, len(exps))
	}

	up, err := NewRemoteStore(srv.URL, src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := up.Push()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != len(exps) || rep.Transferred != len(exps) || rep.Skipped != 0 || rep.Failed != 0 {
		t.Errorf("first push = %+v", rep)
	}
	if n, _ := serverStore.Len(); n != len(exps) {
		t.Errorf("server holds %d entries after push, want %d", n, len(exps))
	}
	if rep, err = up.Push(); err != nil || rep.Transferred != 0 || rep.Skipped != len(exps) {
		t.Errorf("repeated push = %+v, %v, want all skipped", rep, err)
	}

	// Pull into a fresh directory on another machine.
	dst, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	down, err := NewRemoteStore(srv.URL, dst)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = down.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != len(exps) || rep.Transferred != len(exps) || rep.Failed != 0 {
		t.Errorf("pull = %+v", rep)
	}
	if rep, err = down.Pull(); err != nil || rep.Transferred != 0 || rep.Skipped != len(exps) {
		t.Errorf("repeated pull = %+v, %v, want all skipped", rep, err)
	}
	for _, e := range exps {
		fp := e.Fingerprint()
		got, ok := dst.Load(fp)
		if !ok {
			t.Fatalf("pulled directory missing %s", fp)
		}
		want, _ := src.Load(fp)
		if !bytes.Equal(MarshalResults([]Result{got}), MarshalResults([]Result{want})) {
			t.Errorf("pulled entry %s differs from the source", fp)
		}
	}

	// A remote-only store has nowhere to sync to or from.
	bare, err := NewRemoteStore(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Push(); err == nil {
		t.Error("push without a local tier accepted")
	}
	if _, err := bare.Pull(); err == nil {
		t.Error("pull without a local tier accepted")
	}
}

// flakyCacheServer wraps a real cache handler so tests can break the
// transfer of chosen fingerprints: PUTs are 422ed, GETs answer garbage.
func flakyCacheServer(t *testing.T) (*httptest.Server, *DiskCache, map[string]bool) {
	t.Helper()
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	broken := make(map[string]bool)
	inner := NewCacheHandler(store)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fp := strings.TrimPrefix(r.URL.Path, resultsPath+"/"); broken[fp] {
			switch r.Method {
			case http.MethodPut:
				http.Error(w, "synthetic ingest refusal", http.StatusUnprocessableEntity)
				return
			case http.MethodGet:
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, `{"schema":9999,"result":{}}`) // fails decodeEntry
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, store, broken
}

// TestRemotePushPartialFailure: a server that refuses some entries
// mid-sync yields a SyncReport with the failures counted, and a retry
// after the server heals transfers exactly the failed remainder.
func TestRemotePushPartialFailure(t *testing.T) {
	local, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	for _, impl := range []string{mpiimpl.GridMPI, mpiimpl.MPICH2} {
		for _, tun := range []Tuning{{}, {TCP: true}} {
			e := tinyPingPong(impl, tun)
			if err := local.Store(e.Fingerprint(), Run(e)); err != nil {
				t.Fatal(err)
			}
			fps = append(fps, e.Fingerprint())
		}
	}
	srv, _, broken := flakyCacheServer(t)
	broken[fps[0]] = true
	broken[fps[2]] = true

	remote, err := NewRemoteStore(srv.URL, local)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := remote.Push()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 4 || rep.Transferred != 2 || rep.Failed != 2 {
		t.Fatalf("partial push = %+v, want 2 transferred + 2 failed of 4", rep)
	}
	if got := rep.String(); !strings.Contains(got, "2 failed") {
		t.Errorf("report line hides the failures: %q", got)
	}

	// Healed server: the retry moves exactly the failed remainder.
	for fp := range broken {
		delete(broken, fp)
	}
	rep, err = remote.Push()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transferred != 2 || rep.Skipped != 2 || rep.Failed != 0 {
		t.Fatalf("retry push = %+v, want the 2 failed entries transferred", rep)
	}
}

// TestRemotePullPartialFailure: entries that fail verification on the
// way down are counted failed and never written locally; the healed
// retry repairs exactly those.
func TestRemotePullPartialFailure(t *testing.T) {
	srv, serverStore, broken := flakyCacheServer(t)
	var fps []string
	for _, impl := range []string{mpiimpl.GridMPI, mpiimpl.MPICH2} {
		for _, tun := range []Tuning{{}, {TCP: true}} {
			e := tinyPingPong(impl, tun)
			if err := serverStore.Store(e.Fingerprint(), Run(e)); err != nil {
				t.Fatal(err)
			}
			fps = append(fps, e.Fingerprint())
		}
	}
	broken[fps[1]] = true
	broken[fps[3]] = true

	local, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewRemoteStore(srv.URL, local)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := remote.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 4 || rep.Transferred != 2 || rep.Failed != 2 {
		t.Fatalf("partial pull = %+v, want 2 transferred + 2 failed of 4", rep)
	}
	for _, fp := range []string{fps[1], fps[3]} {
		if _, ok := local.Load(fp); ok {
			t.Errorf("unverifiable entry %s was written locally", fp)
		}
	}
	for fp := range broken {
		delete(broken, fp)
	}
	rep, err = remote.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transferred != 2 || rep.Skipped != 2 || rep.Failed != 0 {
		t.Fatalf("retry pull = %+v", rep)
	}
	if n, _ := local.Len(); n != 4 {
		t.Errorf("local store holds %d entries after healed pull, want 4", n)
	}
}

// TestCacheServerStatusz: the counters behind /statusz track hits,
// misses, accepted PUTs and rejections, next to the entry count.
func TestCacheServerStatusz(t *testing.T) {
	srv, _ := newCacheServer(t)
	e := tinyPingPong(mpiimpl.GridMPI, Tuning{})
	fp := e.Fingerprint()
	entry := srv.URL + resultsPath + "/" + fp

	// One accepted PUT, one rejected (wrong schema generation), one GET
	// hit, one miss.
	doPut(t, entry, envelope(t, Run(e), DiskSchemaVersion)).Body.Close()
	doPut(t, entry, envelope(t, Run(e), DiskSchemaVersion+1)).Body.Close()
	resp, err := http.Get(entry)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("get = %v, %v", resp, err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + resultsPath + "/" + strings.Repeat("0", 16))
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("miss = %v, %v", resp, err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/statusz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz = %v, %v", resp, err)
	}
	defer resp.Body.Close()
	var status ServerStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	want := ServerStatus{Entries: 1, Served: RemoteStats{RemoteHits: 1, Misses: 1, Pushes: 1, Errors: 1}}
	if status.Entries != want.Entries || status.Served != want.Served || status.Jobs != nil {
		t.Fatalf("statusz = %+v, want %+v", status, want)
	}
}
