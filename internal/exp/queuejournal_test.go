package exp

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recoverTestQueue recovers (or freshly creates) a journaled queue and
// pins its clock so lease arithmetic is deterministic.
func recoverTestQueue(t *testing.T, store *DiskCache, dir string, cfg QueueConfig) (*JobQueue, RecoveryReport) {
	t.Helper()
	q, rep, err := RecoverJobQueue(store, cfg, dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	clock := time.Unix(1_000_000, 0)
	q.now = func() time.Time { return clock }
	return q, rep
}

// TestJournalCrashRecoveryResumesJob is the tentpole test: a journaled
// queue dies mid-sweep — after a submit, a live lease, and one verified
// report — and a recovery from the same directory resumes the job
// exactly: the cached cell stays cached, the reported cell stays done
// (the store verifies it), the lease survives for its worker, and the
// fleet finishes without recomputing anything already verified.
func TestJournalCrashRecoveryResumesJob(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()
	cfg := QueueConfig{TTL: time.Minute, Slices: 2}
	cells := tinyMatrix()
	// One cell is already in the store at submit time.
	computeAndStore(t, store, cells[0])

	q1, rep := recoverTestQueue(t, store, jdir, cfg)
	if rep.Jobs != 0 || rep.Records != 0 {
		t.Fatalf("fresh dir recovery = %+v", rep)
	}
	st, err := q1.Submit(cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != 1 || st.Queued != 3 {
		t.Fatalf("submit = %+v", st)
	}
	grant, ok := q1.Lease("w1")
	if !ok || len(grant.Cells) == 0 {
		t.Fatalf("lease = %+v, %v", grant, ok)
	}
	reported := grant.Cells[0]
	computeAndStore(t, store, reported)
	if ack, err := q1.Report(grant.Job, grant.Lease, "w1", reported.Fingerprint(), false, ""); err != nil || !ack.Verified {
		t.Fatalf("report: %+v, %v", ack, err)
	}
	// Crash: no drain, no checkpoint — just the WAL on disk.
	q1.Close()

	q2, rep2 := recoverTestQueue(t, store, jdir, cfg)
	defer q2.Close()
	if rep2.Jobs != 1 || rep2.Running != 1 || rep2.Requeued != 0 || rep2.TailTruncated {
		t.Fatalf("crash recovery = %+v", rep2)
	}
	got, ok := q2.Status(st.ID)
	if !ok {
		t.Fatalf("job %s lost in recovery", st.ID)
	}
	if got.Cached != 1 || got.Computed != 1 || got.Done != 2 {
		t.Fatalf("recovered progress = %+v, want cached 1 + computed 1", got)
	}
	if got.Leased != len(grant.Cells)-1 {
		t.Fatalf("recovered leased = %d, want the %d unreported cells of the surviving lease", got.Leased, len(grant.Cells)-1)
	}

	// The surviving lease keeps working: its remaining cells report
	// under the original lease ID.
	for _, e := range grant.Cells[1:] {
		computeAndStore(t, store, e)
		if ack, err := q2.Report(grant.Job, grant.Lease, "w1", e.Fingerprint(), false, ""); err != nil || !ack.Verified {
			t.Fatalf("post-recovery report: %+v, %v", ack, err)
		}
	}
	// A second worker drains whatever is still queued.
	for {
		g, ok := q2.Lease("w2")
		if !ok {
			break
		}
		for _, e := range g.Cells {
			computeAndStore(t, store, e)
			if ack, err := q2.Report(g.Job, g.Lease, "w2", e.Fingerprint(), false, ""); err != nil || !ack.Verified {
				t.Fatalf("drain report: %+v, %v", ack, err)
			}
		}
	}
	final, _ := q2.Status(st.ID)
	if final.State != "done" || final.Cached != 1 || final.Computed != 3 {
		t.Fatalf("final = %+v, want done with 1 cached + 3 computed (nothing recomputed)", final)
	}

	// Deterministic IDs: the seq counter round-tripped, so a new job
	// does not collide with recovered IDs.
	st2, err := q2.Submit(Sweep{
		Impls:      []string{"GridMPI"},
		Tunings:    []Tuning{{}},
		Topologies: []Topology{Grid(1)},
		Workloads:  []Workload{PingPongWorkload(tinySizes, 7)},
	}.Experiments(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Fatalf("recovered seq reissued job ID %s", st2.ID)
	}
}

// TestJournalRecoveryReverifiesDoneAgainstStore: a journaled "done"
// claim is only as good as the store entry behind it. When the entry
// vanishes between crash and recovery, the cell returns to pending.
func TestJournalRecoveryReverifiesDoneAgainstStore(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()
	cfg := QueueConfig{TTL: time.Minute, Slices: 1}
	cells := tinyMatrix()

	q1, _ := recoverTestQueue(t, store, jdir, cfg)
	st, err := q1.Submit(cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	grant, _ := q1.Lease("w1")
	victim := grant.Cells[0]
	computeAndStore(t, store, victim)
	if ack, _ := q1.Report(grant.Job, grant.Lease, "w1", victim.Fingerprint(), false, ""); !ack.Verified {
		t.Fatal("report rejected")
	}
	q1.Close()

	// The verified entry disappears (eviction, disk loss) before the
	// restart.
	if err := os.Remove(filepath.Join(store.Dir(), victim.Fingerprint()+".json")); err != nil {
		t.Fatal(err)
	}

	q2, rep := recoverTestQueue(t, store, jdir, cfg)
	defer q2.Close()
	if rep.Requeued != 1 {
		t.Fatalf("recovery = %+v, want exactly the evicted cell requeued", rep)
	}
	got, _ := q2.Status(st.ID)
	if got.Computed != 0 || got.Done != 0 || got.State != "running" {
		t.Fatalf("recovered status = %+v, want the done claim rescinded", got)
	}
	// The requeued cell is leasable again.
	fresh, ok := q2.Lease("w2")
	if !ok {
		t.Fatal("requeued cell not leasable")
	}
	found := false
	for _, e := range fresh.Cells {
		if e.Fingerprint() == victim.Fingerprint() {
			found = true
		}
	}
	if !found {
		t.Fatalf("requeued cell missing from the next lease: %+v", fresh.Cells)
	}
}

// buildJournalFixture produces a journal whose log holds a snapshot plus
// one submit, one lease, and one verified report, and returns the log
// bytes and the job ID.
func buildJournalFixture(t *testing.T, store *DiskCache) (wal []byte, jobID string) {
	t.Helper()
	dir := t.TempDir()
	q, _ := recoverTestQueue(t, store, dir, QueueConfig{TTL: time.Minute, Slices: 1})
	st, err := q.Submit(tinyMatrix(), 1)
	if err != nil {
		t.Fatal(err)
	}
	grant, ok := q.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}
	computeAndStore(t, store, grant.Cells[0])
	if ack, _ := q.Report(grant.Job, grant.Lease, "w1", grant.Cells[0].Fingerprint(), false, ""); !ack.Verified {
		t.Fatal("report rejected")
	}
	q.Close()
	wal, err = os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if payloads, torn := readFrames(wal); len(payloads) != 4 || torn {
		t.Fatalf("fixture WAL has %d records (torn=%v), want snapshot+submit+lease+report", len(payloads), torn)
	}
	return wal, st.ID
}

// cloneJournalDir makes a journal directory holding an arbitrary log.
func cloneJournalDir(t *testing.T, wal []byte) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.WriteFile(filepath.Join(dst, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestJournalTornTailEveryPrefix is the torn-write property test: a
// crash can cut the WAL at any byte. Recovery from every sampled prefix
// must succeed without panicking, apply only intact records, and the
// full log must reproduce the exact pre-crash progress.
func TestJournalTornTailEveryPrefix(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wal, jobID := buildJournalFixture(t, store)
	cfg := QueueConfig{TTL: time.Minute, Slices: 1}

	// Sample the cut points: every byte near frame boundaries would be
	// ideal but slow; a coarse stride plus the exact boundaries covers
	// the interesting offsets (torn headers, torn payloads, clean cuts).
	cuts := map[int]bool{0: true, len(wal): true}
	for off := 0; off < len(wal); off += max(1, len(wal)/64) {
		cuts[off] = true
	}
	boundary := map[int]bool{0: true} // cuts here are clean reads, not torn tails
	off := 0
	for off < len(wal) { // exact frame boundaries ± 1
		n := int(uint32(wal[off]) | uint32(wal[off+1])<<8 | uint32(wal[off+2])<<16 | uint32(wal[off+3])<<24)
		for _, o := range []int{off - 1, off, off + 1, off + 7, off + 8, off + 8 + n - 1, off + 8 + n} {
			if o >= 0 && o <= len(wal) {
				cuts[o] = true
			}
		}
		off += 8 + n
		boundary[off] = true
	}

	for cut := range cuts {
		q, rep, err := RecoverJobQueue(store, cfg, cloneJournalDir(t, wal[:cut]))
		if err != nil {
			t.Fatalf("cut %d: recover failed: %v", cut, err)
		}
		if rep.TailTruncated != !boundary[cut] {
			t.Errorf("cut %d: TailTruncated = %v (boundary=%v)", cut, rep.TailTruncated, boundary[cut])
		}
		if cut == len(wal) {
			st, ok := q.Status(jobID)
			if !ok || st.Computed != 1 || st.Leased != len(tinyMatrix())-1 {
				t.Fatalf("full log: status = %+v, %v", st, ok)
			}
		}
		q.Close()
	}
}

// TestJournalCorruptRecordTruncates: a bit flip inside a record fails
// its checksum; the clean prefix survives, the rest is discarded, and
// the stats say so.
func TestJournalCorruptRecordTruncates(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wal, jobID := buildJournalFixture(t, store)
	corrupt := append([]byte(nil), wal...)
	corrupt[len(corrupt)-3] ^= 0x40 // inside the last record's payload

	q, rep, err := RecoverJobQueue(store, QueueConfig{TTL: time.Minute, Slices: 1}, cloneJournalDir(t, corrupt))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer q.Close()
	if !rep.TailTruncated || rep.Records != 2 {
		t.Fatalf("recovery = %+v, want 2 clean records and a truncated tail", rep)
	}
	st, ok := q.Status(jobID)
	if !ok || st.Computed != 0 || st.Leased != len(tinyMatrix()) {
		// The corrupted report is gone; the submit and lease stand.
		t.Fatalf("status = %+v, %v", st, ok)
	}
	if stats := q.JournalStats(); stats == nil || stats.TailTruncations != 1 {
		t.Fatalf("journal stats = %+v, want one tail truncation", stats)
	}
}

// TestJournalForeignSchemaRecord: a structurally valid record from a
// future generation stops replay cleanly at that point — never a panic,
// never a misread.
func TestJournalForeignSchemaRecord(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wal, jobID := buildJournalFixture(t, store)
	foreign, err := json.Marshal(journalRecord{V: journalSchemaVersion + 1, Kind: "submit", Job: "j9999"})
	if err != nil {
		t.Fatal(err)
	}
	q, rep, err := RecoverJobQueue(store, QueueConfig{TTL: time.Minute, Slices: 1},
		cloneJournalDir(t, append(append([]byte(nil), wal...), frame(foreign)...)))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer q.Close()
	if !rep.TailTruncated || rep.Records != 3 {
		t.Fatalf("recovery = %+v, want the 3 native records and a truncated tail", rep)
	}
	if _, ok := q.Status("j9999"); ok {
		t.Fatal("foreign-generation record was applied")
	}
	if _, ok := q.Status(jobID); !ok {
		t.Fatal("native records lost")
	}
}

// TestJournalForeignSnapshotIsCleanMiss: a snapshot from a future
// generation at the head of the log stops replay before anything — the
// queue starts empty (the store still prevents recomputation) instead
// of guessing.
func TestJournalForeignSnapshotIsCleanMiss(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wal, _ := buildJournalFixture(t, store)
	blob, err := json.Marshal(journalRecord{V: journalSchemaVersion + 1, Kind: "snapshot", State: &queueState{}})
	if err != nil {
		t.Fatal(err)
	}
	dir := cloneJournalDir(t, append(frame(blob), wal...))
	q, rep, err := RecoverJobQueue(store, QueueConfig{TTL: time.Minute, Slices: 1}, dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer q.Close()
	if rep.Jobs != 0 || rep.Records != 0 {
		t.Fatalf("recovery = %+v, want a clean empty start", rep)
	}
	if stats := q.JournalStats(); stats == nil || stats.TailTruncations != 1 {
		t.Fatalf("journal stats = %+v, want one tail truncation", stats)
	}
	// The queue still works: a resubmission resolves from the store.
	if _, err := q.Submit(tinyMatrix(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestJournalGarbageWALNeverPanics: arbitrary bytes in the log are a
// truncate-at-zero, not a crash.
func TestJournalGarbageWALNeverPanics(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, garbage := range [][]byte{
		[]byte("not a journal at all"),
		{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, // absurd length header
		{0, 0, 0, 0, 0, 0, 0, 0},             // zero-length frame
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		q, rep, err := RecoverJobQueue(store, QueueConfig{}, dir)
		if err != nil {
			t.Fatalf("recover over %q: %v", garbage, err)
		}
		if rep.Records != 0 || !rep.TailTruncated {
			t.Errorf("recovery over %q = %+v", garbage, rep)
		}
		q.Close()
	}
}

// TestJournalCheckpointCompacts: a drain-time checkpoint rewrites the
// log as one snapshot record; the next recovery reads zero records and
// the same state.
func TestJournalCheckpointCompacts(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()
	cfg := QueueConfig{TTL: time.Minute, Slices: 1}
	q1, _ := recoverTestQueue(t, store, jdir, cfg)
	st, err := q1.Submit(tinyMatrix(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q1.Lease("w1"); !ok {
		t.Fatal("no lease")
	}
	if err := q1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(jdir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if payloads, torn := readFrames(blob); len(payloads) != 1 || torn || !strings.Contains(string(payloads[0]), `"kind":"snapshot"`) {
		t.Fatalf("log after checkpoint holds %d records (torn=%v), want the snapshot alone", len(payloads), torn)
	}
	if entries, err := os.ReadDir(jdir); err != nil || len(entries) != 1 {
		t.Fatalf("journal directory holds %v (%v), want %s alone", entries, err, walName)
	}
	stats := q1.JournalStats()
	if stats.Compactions < 1 || stats.LastCompaction == "" {
		t.Fatalf("journal stats = %+v, want a recorded compaction", stats)
	}
	q1.Close()

	q2, rep := recoverTestQueue(t, store, jdir, cfg)
	defer q2.Close()
	if rep.Records != 0 || rep.Jobs != 1 {
		t.Fatalf("post-checkpoint recovery = %+v, want snapshot-only", rep)
	}
	got, _ := q2.Status(st.ID)
	if got.Leased != len(tinyMatrix()) || got.State != "running" {
		t.Fatalf("recovered from snapshot = %+v", got)
	}
}

// TestJournalSizeThresholdCompacts: once the WAL outgrows maxBytes
// the queue compacts on its own, without a drain.
func TestJournalSizeThresholdCompacts(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()
	q, _ := recoverTestQueue(t, store, jdir, QueueConfig{TTL: time.Minute, Slices: 1})
	defer q.Close()
	q.journal.maxBytes = 256 // tiny threshold: the first submit overflows it
	if _, err := q.Submit(tinyMatrix(), 1); err != nil {
		t.Fatal(err)
	}
	stats := q.JournalStats()
	if stats.Compactions < 1 {
		t.Fatalf("journal stats = %+v, want an automatic compaction", stats)
	}
	if stats.WALBytes != 0 {
		t.Fatalf("WAL holds %d bytes after compaction", stats.WALBytes)
	}
}

// TestQueueDrainStopsLeasesKeepsReports: a draining queue grants
// nothing new while in-flight reports (and their verification) land
// normally, and ActiveLeases tracks the drain to zero.
func TestQueueDrainStopsLeasesKeepsReports(t *testing.T) {
	q, store, _ := newTestQueue(t, time.Minute, 1)
	if _, err := q.Submit(tinyMatrix(), 1); err != nil {
		t.Fatal(err)
	}
	grant, ok := q.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}
	q.SetDraining(true)
	if got := q.ActiveLeases(); got != 1 {
		t.Fatalf("ActiveLeases = %d, want 1", got)
	}
	if _, ok := q.Lease("w2"); ok {
		t.Fatal("draining queue granted a lease")
	}
	for _, e := range grant.Cells {
		computeAndStore(t, store, e)
		ack, err := q.Report(grant.Job, grant.Lease, "w1", e.Fingerprint(), false, "")
		if err != nil || !ack.Verified {
			t.Fatalf("report during drain: %+v, %v", ack, err)
		}
	}
	if got := q.ActiveLeases(); got != 0 {
		t.Fatalf("ActiveLeases after drain = %d, want 0", got)
	}
	q.SetDraining(false)
	if _, ok := q.Lease("w2"); ok {
		t.Fatal("finished job still leasable") // everything reported; nothing pending
	}
}

// TestQueueFleetSurvivesSweepdRestart is the acceptance test in
// process: a journaled control plane dies mid-sweep (its HTTP server
// starts refusing everything after the second report, exactly like a
// kill -9), a new one recovers from the same journal directory on the
// same address, and the retrying worker plus the waiting submitter ride
// through the outage: the job completes with every cell computed
// exactly once and output byte-identical to a direct local run.
func TestQueueFleetSurvivesSweepdRestart(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()
	cfg := QueueConfig{TTL: 30 * time.Second, Slices: 1, Poll: 5 * time.Millisecond}
	cells := tinyMatrix()
	direct := NewRunner(2).RunAll(cells)

	q1, _, err := RecoverJobQueue(store, cfg, jdir)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	// After the second report arrives the plane "dies": every request —
	// that one included — is refused from then on, so the journal holds
	// exactly one verified report when recovery runs.
	var reports, dead atomic.Int32
	died := make(chan struct{})
	deadening := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && len(r.URL.Path) > len(jobsPath) && r.URL.Path[len(r.URL.Path)-7:] == "/report" {
				if reports.Add(1) == 2 && dead.CompareAndSwap(0, 1) {
					close(died)
				}
			}
			if dead.Load() != 0 {
				http.Error(w, "sweepd is down", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	srv1 := &http.Server{Handler: deadening(NewQueueHandler(q1, NewCacheServer(store)))}
	go srv1.Serve(ln)

	retry := Backoff{Window: 20 * time.Second}
	client, err := NewQueueClient("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	client.Retry = retry
	st, err := client.Submit(cells, 1)
	if err != nil {
		t.Fatal(err)
	}

	rs, err := NewRemoteStore("http://"+addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs.Retry = retry
	runner := NewRunnerStore(1, rs)
	stopW := make(chan struct{})
	var wg sync.WaitGroup
	var rep WorkerReport
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep = client.Work(WorkerConfig{ID: "w1", Runner: runner, Stop: stopW})
	}()

	<-died
	srv1.Close()
	q1.Close()

	// Restart: recover from the journal and serve on the same address.
	q2, rec, err := RecoverJobQueue(store, cfg, jdir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if rec.Jobs != 1 || rec.Running != 1 || rec.Records != 3 {
		t.Fatalf("restart recovery = %+v, want submit+lease+report replayed", rec)
	}
	var ln2 net.Listener
	for range 100 { // the old listener's port frees asynchronously
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := &http.Server{Handler: NewQueueHandler(q2, NewCacheServer(store))}
	defer srv2.Close()
	go srv2.Serve(ln2)

	final, err := client.WaitJob(st.ID, 10*time.Millisecond, nil)
	close(stopW)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Computed != len(cells) || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}
	// Every cell was computed exactly once: the restart recomputed
	// nothing the store had already verified.
	if got := runner.CacheStats().Computed; got != int64(len(cells)) {
		t.Fatalf("worker computed %d cells, want %d exactly once each", got, len(cells))
	}
	if rep.Errors != 0 || rep.Rejected != 0 || rep.Failed != 0 {
		t.Fatalf("worker report = %+v", rep)
	}

	// Byte-identical output against the uninterrupted local run.
	fleet := make([]Result, len(cells))
	for i, e := range cells {
		res, ok := store.Load(e.Fingerprint())
		if !ok {
			t.Fatalf("missing cell %s", e.Fingerprint())
		}
		fleet[i] = res
	}
	if string(MarshalResults(fleet)) != string(MarshalResults(direct)) {
		t.Error("fleet output differs from the direct local run after the restart")
	}
}

// TestJournalFailedAppendCompacts: a failed append (a full disk, say) can
// leave a torn frame in the log, and every record appended behind it
// would be invisible to recovery. A failed append must compact instead,
// rewriting the log from memory, so later records recover.
func TestJournalFailedAppendCompacts(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()
	cfg := QueueConfig{TTL: time.Minute, Slices: 1}
	q1, _ := recoverTestQueue(t, store, jdir, cfg)
	st, err := q1.Submit(tinyMatrix(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// A torn frame reaches the log, and the journal's own handle breaks
	// so that the next append fails.
	f, err := os.OpenFile(filepath.Join(jdir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame([]byte(`{"v":1,"kind":"report"}`))[:12]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	q1.journal.wal.Close()

	grant, ok := q1.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}
	computeAndStore(t, store, grant.Cells[0])
	if ack, _ := q1.Report(grant.Job, grant.Lease, "w1", grant.Cells[0].Fingerprint(), false, ""); !ack.Verified {
		t.Fatal("report rejected")
	}
	if stats := q1.JournalStats(); stats.AppendErrors == 0 {
		t.Fatalf("journal stats = %+v, want the failed append counted", stats)
	}
	q1.Close()

	q2, _ := recoverTestQueue(t, store, jdir, cfg)
	defer q2.Close()
	got, _ := q2.Status(st.ID)
	if got.Computed != 1 || got.Leased != len(tinyMatrix())-1 {
		t.Fatalf("recovered %+v, want the lease and the report that followed the failed append", got)
	}
}
