package exp

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpiimpl"
)

// tinyMatrix is the 4-cell sweep the queue tests schedule.
func tinyMatrix() []Experiment {
	return Sweep{
		Impls:      []string{mpiimpl.GridMPI, mpiimpl.MPICH2},
		Tunings:    []Tuning{{}, {TCP: true}},
		Topologies: []Topology{Grid(1)},
		Workloads:  []Workload{PingPongWorkload(tinySizes, 3)},
	}.Experiments()
}

// newTestQueue builds a queue over a fresh store with a test-driven
// clock.
func newTestQueue(t *testing.T, ttl time.Duration, slices int) (*JobQueue, *DiskCache, *time.Time) {
	t.Helper()
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1_000_000, 0)
	q := NewJobQueue(store, QueueConfig{TTL: ttl, Slices: slices})
	q.now = func() time.Time { return clock }
	return q, store, &clock
}

// computeAndStore runs one cell the way an honest worker would: compute,
// publish to the store, then the caller reports.
func computeAndStore(t testing.TB, store *DiskCache, e Experiment) {
	t.Helper()
	res := Run(e)
	if res.Err != "" {
		t.Fatalf("run %s: %s", e.Name(), res.Err)
	}
	if err := store.Store(e.Fingerprint(), res); err != nil {
		t.Fatal(err)
	}
}

// TestJobQueueLifecycle: submit → lease → publish+report until done;
// counters and states track every transition, and a resubmission of the
// finished matrix is done on arrival with Computed == 0.
func TestJobQueueLifecycle(t *testing.T) {
	q, store, _ := newTestQueue(t, time.Minute, 2)
	cells := tinyMatrix()

	st, err := q.Submit(cells, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "running" || st.Total != 4 || st.Queued != 4 || st.Done != 0 {
		t.Fatalf("fresh job status = %+v", st)
	}

	seen := 0
	for {
		grant, ok := q.Lease("w1")
		if !ok {
			break
		}
		if grant.Job != st.ID || len(grant.Cells) == 0 {
			t.Fatalf("grant = %+v", grant)
		}
		for _, e := range grant.Cells {
			seen++
			computeAndStore(t, store, e)
			ack, err := q.Report(grant.Job, grant.Lease, "w1", e.Fingerprint(), false, "")
			if err != nil || !ack.Verified {
				t.Fatalf("report: %+v, %v", ack, err)
			}
		}
	}
	if seen != 4 {
		t.Fatalf("leased %d cells, want all 4", seen)
	}
	final, ok := q.Status(st.ID)
	if !ok || final.State != "done" || final.Computed != 4 || final.Cached != 0 || final.Failed != 0 {
		t.Fatalf("final status = %+v", final)
	}
	if len(final.Workers) != 1 || final.Workers[0].ID != "w1" || final.Workers[0].Done != 4 || !final.Workers[0].Live {
		t.Fatalf("worker liveness = %+v", final.Workers)
	}

	// Resubmission: every cell resolves from the store at submit time.
	resub, err := q.Submit(cells, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resub.ID == st.ID {
		t.Fatal("resubmission returned the finished job instead of a fresh one")
	}
	if resub.State != "done" || resub.Computed != 0 || resub.Cached != 4 {
		t.Fatalf("resubmission = %+v, want done on arrival with 0 computed", resub)
	}
}

// TestJobQueueDuplicateSubmitJoinsActiveJob: submitting an identical
// matrix while the first job still runs returns the same job rather
// than queueing the work twice.
func TestJobQueueDuplicateSubmitJoinsActiveJob(t *testing.T) {
	q, _, _ := newTestQueue(t, time.Minute, 2)
	first, err := q.Submit(tinyMatrix(), 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := q.Submit(tinyMatrix(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != first.ID {
		t.Fatalf("duplicate submit created job %s alongside running %s", again.ID, first.ID)
	}
	if _, err := q.Submit(nil, 0); err == nil {
		t.Error("empty submission accepted")
	}
}

// TestJobQueueRejectsLyingWorker: a done report without a loadable
// store entry is refused and the cell stays pending — the trust
// boundary between worker and store, exercised end to end.
func TestJobQueueRejectsLyingWorker(t *testing.T) {
	q, store, _ := newTestQueue(t, time.Minute, 1)
	st, err := q.Submit(tinyMatrix(), 0)
	if err != nil {
		t.Fatal(err)
	}
	grant, ok := q.Lease("liar")
	if !ok {
		t.Fatal("no lease")
	}
	e := grant.Cells[0]
	fp := e.Fingerprint()

	// Claim done without publishing anything.
	ack, err := q.Report(grant.Job, grant.Lease, "liar", fp, false, "")
	if err != nil || ack.Verified {
		t.Fatalf("unpublished done claim accepted: %+v, %v", ack, err)
	}
	// Publish garbage under the fingerprint: the store's Load (the
	// decodeEntry gate) refuses it, so the claim still fails.
	wrong := Run(grant.Cells[1])
	if err := store.Store(fp, wrong); err != nil {
		t.Fatal(err)
	}
	ack, err = q.Report(grant.Job, grant.Lease, "liar", fp, false, "")
	if err != nil || ack.Verified {
		t.Fatalf("mismatched entry verified: %+v, %v", ack, err)
	}
	if mid, _ := q.Status(st.ID); mid.Done != 0 {
		t.Fatalf("lying reports made progress: %+v", mid)
	}
	// The honest path still works.
	computeAndStore(t, store, e)
	if ack, err = q.Report(grant.Job, grant.Lease, "liar", fp, false, ""); err != nil || !ack.Verified {
		t.Fatalf("honest report refused: %+v, %v", ack, err)
	}
}

// TestJobQueueLeaseExpiryRequeues is the kill -9 contract in miniature:
// a worker leases cells and vanishes; after the TTL the cells are
// re-leased to another worker and the job completes with zero lost
// cells. A late report from the zombie is still acknowledged without
// corrupting state.
func TestJobQueueLeaseExpiryRequeues(t *testing.T) {
	q, store, clock := newTestQueue(t, time.Minute, 1)
	st, err := q.Submit(tinyMatrix(), 0)
	if err != nil {
		t.Fatal(err)
	}
	dead, ok := q.Lease("doomed")
	if !ok {
		t.Fatal("no lease")
	}
	if mid, _ := q.Status(st.ID); mid.Leased != 4 {
		t.Fatalf("leased = %d, want 4", mid.Leased)
	}
	// The worker dies; once the TTL passes, the whole slice requeues
	// and re-leases intact (no steal needed — the lease is simply gone).
	*clock = clock.Add(2 * time.Minute)
	rescue, ok := q.Lease("rescue")
	if !ok {
		t.Fatal("expired slice not re-leased")
	}
	if len(rescue.Cells) != 4 {
		t.Fatalf("re-lease carries %d cells, want all 4", len(rescue.Cells))
	}
	for _, e := range rescue.Cells {
		computeAndStore(t, store, e)
		if ack, err := q.Report(rescue.Job, rescue.Lease, "rescue", e.Fingerprint(), false, ""); err != nil || !ack.Verified {
			t.Fatalf("report: %+v, %v", ack, err)
		}
	}
	final, _ := q.Status(st.ID)
	if final.State != "done" || final.Done != 4 {
		t.Fatalf("job after rescue = %+v", final)
	}
	// The zombie's late report on its stale lease: idempotent ack.
	if ack, err := q.Report(dead.Job, dead.Lease, "doomed", rescue.Cells[0].Fingerprint(), false, ""); err != nil || !ack.Verified {
		t.Fatalf("zombie report = %+v, %v", ack, err)
	}
	if again, _ := q.Status(st.ID); again.Done != 4 || again.Computed != 4 {
		t.Fatalf("zombie report corrupted counters: %+v", again)
	}
}

// TestJobQueueWorkStealing: with every slice leased, a second worker's
// lease splits the straggler's pending cells; the donor learns of the
// theft via the drop list on its next report.
func TestJobQueueWorkStealing(t *testing.T) {
	q, store, _ := newTestQueue(t, time.Minute, 1)
	if _, err := q.Submit(tinyMatrix(), 0); err != nil {
		t.Fatal(err)
	}
	straggler, ok := q.Lease("straggler")
	if !ok || len(straggler.Cells) != 4 {
		t.Fatalf("straggler grant = %+v", straggler)
	}
	thief, ok := q.Lease("thief")
	if !ok {
		t.Fatal("nothing stolen for the idle worker")
	}
	if len(thief.Cells) != 2 {
		t.Fatalf("thief got %d cells, want half (2)", len(thief.Cells))
	}
	// The straggler's next report returns the stolen fingerprints.
	e := straggler.Cells[0]
	computeAndStore(t, store, e)
	ack, err := q.Report(straggler.Job, straggler.Lease, "straggler", e.Fingerprint(), false, "")
	if err != nil || !ack.Verified {
		t.Fatalf("report: %+v, %v", ack, err)
	}
	if len(ack.Drop) != 2 {
		t.Fatalf("drop list = %v, want the 2 stolen cells", ack.Drop)
	}
	stolen := map[string]bool{}
	for _, fp := range ack.Drop {
		stolen[fp] = true
	}
	for _, c := range thief.Cells {
		if !stolen[c.Fingerprint()] {
			t.Errorf("thief cell %s missing from the donor's drop list", c.Fingerprint())
		}
	}
}

// TestJobQueueFailedCells: a failure report terminates the cell, the
// job finishes in the failed state, and the failure carries the
// worker's error text.
func TestJobQueueFailedCells(t *testing.T) {
	q, store, _ := newTestQueue(t, time.Minute, 1)
	st, err := q.Submit(tinyMatrix(), 0)
	if err != nil {
		t.Fatal(err)
	}
	grant, _ := q.Lease("w")
	for i, e := range grant.Cells {
		if i == 0 {
			if _, err := q.Report(grant.Job, grant.Lease, "w", e.Fingerprint(), true, "synthetic defect"); err != nil {
				t.Fatal(err)
			}
			continue
		}
		computeAndStore(t, store, e)
		if _, err := q.Report(grant.Job, grant.Lease, "w", e.Fingerprint(), false, ""); err != nil {
			t.Fatal(err)
		}
	}
	final, _ := q.Status(st.ID)
	if final.State != "failed" || final.Failed != 1 || final.Done != 3 {
		t.Fatalf("final = %+v", final)
	}
	if len(final.Failures) != 1 || final.Failures[0].Err != "synthetic defect" {
		t.Fatalf("failures = %+v", final.Failures)
	}
}

// TestQueueFleetEndToEnd is the tentpole acceptance test in process: a
// sweepd handler over httptest, three Work-loop workers whose runners
// publish through RemoteStores, a submission that completes with
// results byte-identical to a direct local run, and a resubmission that
// computes nothing.
func TestQueueFleetEndToEnd(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := NewJobQueue(store, QueueConfig{TTL: 30 * time.Second, Slices: 3, Poll: 20 * time.Millisecond})
	srv := httptest.NewServer(NewQueueHandler(q, NewCacheServer(store)))
	defer srv.Close()

	cells := tinyMatrix()
	direct := NewRunner(2).RunAll(cells)

	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Submit(cells, 0)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	reports := make([]WorkerReport, 3)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := NewRemoteStore(srv.URL, nil)
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = client.Work(WorkerConfig{
				ID:       []string{"w1", "w2", "w3"}[i],
				Runner:   NewRunnerStore(1, rs),
				IdleExit: 25,
			})
		}(i)
	}
	final, err := client.WaitJob(st.ID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if final.State != "done" || final.Computed != 4 || final.Failed != 0 {
		t.Fatalf("fleet job = %+v", final)
	}

	// Pull the results back through the verified read path, in
	// submission order, and compare to the direct run.
	pull, err := NewRemoteStore(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	fleet := make([]Result, len(cells))
	for i, e := range cells {
		res, ok := pull.Load(e.Fingerprint())
		if !ok {
			t.Fatalf("finished job missing cell %s", e.Fingerprint())
		}
		fleet[i] = res
	}
	if !bytes.Equal(MarshalResults(fleet), MarshalResults(direct)) {
		t.Error("fleet results differ from the direct local run")
	}

	// Resubmission computes nothing, with no workers even running.
	resub, err := client.Submit(cells, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resub.Finished() || resub.Computed != 0 || resub.Cached != len(cells) {
		t.Fatalf("resubmission = %+v, want done on arrival", resub)
	}

	// The control-plane statusz lists both jobs next to the store stats.
	var status ServerStatus
	if err := client.get("/statusz", &status); err != nil {
		t.Fatal(err)
	}
	if status.Entries != len(cells) || len(status.Jobs) != 2 {
		t.Fatalf("statusz = %+v, want %d entries and 2 jobs", status, len(cells))
	}
	if status.Served.Pushes != int64(len(cells)) {
		t.Errorf("statusz pushes = %d, want %d", status.Served.Pushes, len(cells))
	}
}

// TestQueueHandlerRejects: transport-layer validation — malformed
// bodies, unknown jobs, bad fingerprints and empty worker names are
// refused with 4xx, never reaching the state machine.
func TestQueueHandlerRejects(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := NewJobQueue(store, QueueConfig{TTL: time.Minute, Slices: 2})
	srv := httptest.NewServer(NewQueueHandler(q, NewCacheServer(store)))
	defer srv.Close()
	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := client.Submit(nil, 0); err == nil || !strings.Contains(err.Error(), "empty job") {
		t.Errorf("empty submission: %v", err)
	}
	if _, err := client.Job("j9999"); err == nil {
		t.Error("unknown job served")
	}
	if _, err := client.Job("../etc"); err == nil {
		t.Error("malformed job ID accepted")
	}
	if _, err := client.Report("j0001", "l1", "w", "not-a-fingerprint", false, ""); err == nil {
		t.Error("bad fingerprint accepted")
	}
	if _, err := client.Lease(""); err == nil {
		t.Error("anonymous lease accepted")
	}
	if grant, err := client.Lease("w"); err != nil || grant != nil {
		t.Errorf("empty queue lease = %+v, %v, want nil grant", grant, err)
	}
	if _, err := NewQueueClient("not a url"); err == nil {
		t.Error("bad sweepd URL accepted")
	}
}

// TestSubmitRefusesUnrunnableCell: a submission holding one cell that no
// worker could run is refused whole with a 422 naming that cell, and it
// leaves no job behind, live or in the journal.
func TestSubmitRefusesUnrunnableCell(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()
	cfg := QueueConfig{TTL: time.Minute, Slices: 1}
	q, _ := recoverTestQueue(t, store, jdir, cfg)
	srv := httptest.NewServer(NewQueueHandler(q, NewCacheServer(store)))
	defer srv.Close()
	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	before := *q.JournalStats()

	cells := tinyMatrix()
	cells[2].Impl = "NoSuchMPI"
	_, err = client.Submit(cells, 0)
	var se *statusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("submission with an unknown implementation: %v, want a 422", err)
	}
	if want := fmt.Sprintf("cell 2 (%s)", cells[2].Name()); !strings.Contains(se.Text, want) || !strings.Contains(se.Text, "NoSuchMPI") {
		t.Errorf("refusal %q does not name %q and its implementation", se.Text, want)
	}
	if jobs := q.Jobs(); len(jobs) != 0 {
		t.Errorf("refused submission left jobs %+v", jobs)
	}
	if after := *q.JournalStats(); after.Appended != before.Appended {
		t.Errorf("refused submission journaled %d records", after.Appended-before.Appended)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rep := recoverTestQueue(t, store, jdir, cfg); rep.Jobs != 0 || rep.Records != 0 {
		t.Errorf("recovery after the refusal = %+v, want no job and no record", rep)
	}
}
