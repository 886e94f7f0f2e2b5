package exp

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// noSleep is a Backoff for tests: real transient classification and
// budget arithmetic, zero wall-clock cost.
func noSleep(window time.Duration) Backoff {
	return Backoff{Base: 10 * time.Millisecond, Cap: 20 * time.Millisecond, Window: window, Sleep: func(time.Duration) {}}
}

// TestClientRetriesTransient: a 503 is the server restarting, not an
// answer — the client retries through it and the caller never notices.
func TestClientRetriesTransient(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("[]"))
	}))
	defer srv.Close()
	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	client.Retry = noSleep(time.Minute)
	jobs, err := client.Jobs()
	if err != nil || len(jobs) != 0 {
		t.Fatalf("Jobs = %v, %v", jobs, err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 2 failures + 1 success", got)
	}
}

// TestClientPermanentFailsFast: a 4xx means the request itself is
// wrong; retrying is pointless and the client must not.
func TestClientPermanentFailsFast(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such job", http.StatusNotFound)
	}))
	defer srv.Close()
	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	client.Retry = noSleep(time.Minute)
	if _, err := client.Job("j0001"); err == nil || IsTransient(err) {
		t.Fatalf("err = %v, want a permanent rejection", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want exactly 1", got)
	}
}

// TestWaitJobRidesOutage: the submitter's wait loop treats an
// unreachable sweepd as weather — logged once, polled through, and
// resolved the moment the server answers again.
func TestWaitJobRidesOutage(t *testing.T) {
	q, store, _ := newTestQueue(t, time.Minute, 1)
	st, err := q.Submit(tinyMatrix(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Finish the job server-side so the first successful poll returns.
	grant, _ := q.Lease("w1")
	for _, e := range grant.Cells {
		computeAndStore(t, store, e)
		if _, err := q.Report(grant.Job, grant.Lease, "w1", e.Fingerprint(), false, ""); err != nil {
			t.Fatal(err)
		}
	}

	// The first batch of requests hits a dead server.
	var hits atomic.Int32
	inner := NewQueueHandler(q, NewCacheServer(store))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 20 {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var log strings.Builder
	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	client.Retry = noSleep(30 * time.Millisecond)
	client.Log = &log
	final, err := client.WaitJob(st.ID, time.Millisecond, nil)
	if err != nil {
		t.Fatalf("WaitJob: %v\nlog: %s", err, log.String())
	}
	if final.State != "done" {
		t.Fatalf("final = %+v", final)
	}
	if got := strings.Count(log.String(), "sweepd unreachable"); got != 1 {
		t.Errorf("outage logged %d times, want once:\n%s", got, log.String())
	}
	if got := strings.Count(log.String(), "reachable again"); got != 1 {
		t.Errorf("recovery logged %d times, want once:\n%s", got, log.String())
	}
}

// TestWaitJobUnknownJobFailsFast: retry opt-in must not turn a rejected
// job ID into an endless poll.
func TestWaitJobUnknownJobFailsFast(t *testing.T) {
	q, store, _ := newTestQueue(t, time.Minute, 1)
	srv := httptest.NewServer(NewQueueHandler(q, NewCacheServer(store)))
	defer srv.Close()
	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	client.Retry = noSleep(time.Minute)
	start := time.Now()
	if _, err := client.WaitJob("j9999", time.Millisecond, nil); err == nil || IsTransient(err) {
		t.Fatalf("err = %v, want a fast permanent rejection", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fail-fast took %v", elapsed)
	}
}

// TestQueueClientKeepsConnection: every reply the client reads — a
// JSON answer, a 4xx rejection and an empty 204 lease — must leave its
// keep-alive connection reusable, or each call of a polling worker
// redials sweepd. Sixty sequential calls open one connection.
func TestQueueClientKeepsConnection(t *testing.T) {
	q, store, _ := newTestQueue(t, time.Minute, 1)
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(NewQueueHandler(q, NewCacheServer(store)))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := client.Jobs(); err != nil {
			t.Fatalf("jobs: %v", err)
		}
		if _, err := client.Job("nope"); err == nil || !strings.Contains(err.Error(), "404") {
			t.Fatalf("unknown job: err = %v, want a 404", err)
		}
		if grant, err := client.Lease("w1"); err != nil || grant != nil {
			t.Fatalf("lease on an empty queue = %+v, %v", grant, err)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("60 sequential calls opened %d connections, want 1", n)
	}
}

// TestClientPollHint: the server's -poll flag reaches every worker via
// the lease-response header, even on empty 204 answers.
func TestClientPollHint(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := NewJobQueue(store, QueueConfig{Poll: 123 * time.Millisecond})
	srv := httptest.NewServer(NewQueueHandler(q, NewCacheServer(store)))
	defer srv.Close()
	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := client.PollHint(); got != 0 {
		t.Fatalf("hint before any lease = %v", got)
	}
	if grant, err := client.Lease("w1"); err != nil || grant != nil {
		t.Fatalf("lease on empty queue = %+v, %v", grant, err)
	}
	if got := client.PollHint(); got != 123*time.Millisecond {
		t.Fatalf("hint = %v, want the server's 123ms", got)
	}
}

// TestWorkerStopFinishesCurrentCell: a graceful stop lands between
// cells — the one in flight completes and reports, the rest of the
// lease is abandoned for the queue to re-lease.
func TestWorkerStopFinishesCurrentCell(t *testing.T) {
	q, store, _ := newTestQueue(t, time.Minute, 1)
	st, err := q.Submit(tinyMatrix(), 1)
	if err != nil {
		t.Fatal(err)
	}
	stopCh := make(chan struct{})
	var stopOnce atomic.Bool
	inner := NewQueueHandler(q, NewCacheServer(store))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The stop request arrives while the first report is in flight:
		// closed before the response, so the worker's next between-cells
		// check deterministically sees it.
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/report") && stopOnce.CompareAndSwap(false, true) {
			close(stopCh)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRemoteStore(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	rep := client.Work(WorkerConfig{ID: "w1", Runner: NewRunnerStore(1, rs), Poll: time.Millisecond, Stop: stopCh, Log: &log})
	if rep.Leases != 1 || rep.Cells != 1 || rep.Errors != 0 || rep.Rejected != 0 {
		t.Fatalf("report = %+v, want exactly the in-flight cell finished\nlog: %s", rep, log.String())
	}
	if !strings.Contains(log.String(), "abandoning the rest of lease") {
		t.Errorf("no abandon notice in log:\n%s", log.String())
	}
	got, _ := q.Status(st.ID)
	if got.Computed != 1 {
		t.Fatalf("queue shows %d computed, want the reported cell counted", got.Computed)
	}
}

// TestWorkerOutageIsNotAnError: with no retry window a dead server
// surfaces immediately, but the worker still treats it as an outage to
// poll through — Outages counts it, Errors stays zero, and IdleExit
// eventually ends the loop.
func TestWorkerOutageIsNotAnError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	rep := client.Work(WorkerConfig{ID: "w1", Runner: NewRunner(1), Poll: time.Millisecond, IdleExit: 3, Log: &log})
	if rep.Outages != 1 || rep.Errors != 0 {
		t.Fatalf("report = %+v, want one outage and zero errors\nlog: %s", rep, log.String())
	}
	if got := strings.Count(log.String(), "sweepd unreachable"); got != 1 {
		t.Errorf("outage logged %d times, want once:\n%s", got, log.String())
	}
}
