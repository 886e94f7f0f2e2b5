package exp

import (
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noSleep is a Backoff for tests: real transient classification and
// budget arithmetic, zero wall-clock cost.
func noSleep(window time.Duration) Backoff {
	return Backoff{Window: window, Sleep: func(time.Duration) {}}
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
	var jobs []JobStatus
	if err := client.get(jobsPath, &jobs); err != nil || len(jobs) != 0 {
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
// resolved the moment the server answers again — until it has lasted
// four retry windows, when the loop gives up.
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
	inner := NewQueueHandler(q, NewCacheServer(store))

	for _, tc := range []struct {
		name   string
		down   int32 // requests refused before the server answers
		window time.Duration
		gaveUp bool
	}{
		{"rides out", 20, 100 * time.Millisecond, false},
		{"gives up", math.MaxInt32, time.Millisecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if hits.Add(1) <= tc.down {
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
			client.Retry = noSleep(tc.window)
			client.Log = &log
			snapshots := 0
			final, err := client.WaitJob(st.ID, time.Millisecond, func(JobStatus) { snapshots++ })
			if tc.gaveUp {
				if err == nil || !strings.Contains(err.Error(), "sweepd unreachable for") || snapshots != 0 {
					t.Fatalf("WaitJob = %+v, %v after %d snapshots, want it to give up unanswered", final, err, snapshots)
				}
			} else if err != nil || final.State != "done" || snapshots != 1 {
				t.Fatalf("WaitJob = %+v, %v after %d snapshots, want done on the first answer\nlog: %s", final, err, snapshots, log.String())
			}
			if got := strings.Count(log.String(), "sweepd unreachable"); got != 1 {
				t.Errorf("outage logged %d times, want once:\n%s", got, log.String())
			}
			want := 1
			if tc.gaveUp {
				want = 0
			}
			if got := strings.Count(log.String(), "reachable again"); got != want {
				t.Errorf("recovery logged %d times, want %d:\n%s", got, want, log.String())
			}
		})
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
	// A zero poll takes the default; the first answer ends the wait.
	if _, err := client.WaitJob("j9999", 0, nil); err == nil || IsTransient(err) {
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
		if err := client.get(jobsPath, new([]JobStatus)); err != nil {
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
	if got := client.pollHint(); got != 0 {
		t.Fatalf("hint before any lease = %v", got)
	}
	if grant, err := client.Lease("w1"); err != nil || grant != nil {
		t.Fatalf("lease on empty queue = %+v, %v", grant, err)
	}
	if got := client.pollHint(); got != 123*time.Millisecond {
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
	client.Log = &log
	rep := client.Work(WorkerConfig{ID: "w1", Runner: NewRunnerStore(1, rs), Stop: stopCh})
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
// eventually ends the loop. The server answers its first lease with
// nothing to do and a 1 ms poll, then dies.
func TestWorkerOutageIsNotAnError(t *testing.T) {
	var leases atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if leases.Add(1) == 1 {
			w.Header().Set(pollHeader, "1")
			w.WriteHeader(http.StatusNoContent)
			return
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	client.Log = &log
	rep := client.Work(WorkerConfig{ID: "w1", Runner: NewRunner(1), IdleExit: 3})
	if rep.Outages != 1 || rep.Errors != 0 {
		t.Fatalf("report = %+v, want one outage and zero errors\nlog: %s", rep, log.String())
	}
	if got := strings.Count(log.String(), "sweepd unreachable"); got != 1 {
		t.Errorf("outage logged %d times, want once:\n%s", got, log.String())
	}
}

// scriptedSweepd serves q and its store as sweepd does, except for the
// calls script answers itself. script sees every lease, report and
// result push ("lease", "report" and "put") with its number on that
// route, from 1, and returns the status to answer it with, or 0 to let
// sweepd answer. A scripted 200 to a report is an ack that the server
// could not verify the result; any other scripted answer is an error,
// and no scripted answer carries a poll hint.
func scriptedSweepd(t *testing.T, q *JobQueue, store *DiskCache, script func(call string, n int) int) *httptest.Server {
	t.Helper()
	inner := NewQueueHandler(q, NewCacheServer(store))
	var mu sync.Mutex
	calls := make(map[string]int)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		call := ""
		switch {
		case r.URL.Path == leasePath:
			call = "lease"
		case strings.HasSuffix(r.URL.Path, "/report"):
			call = "report"
		case r.Method == http.MethodPut:
			call = "put"
		}
		mu.Lock()
		calls[call]++
		status := 0
		if call != "" && script != nil {
			status = script(call, calls[call])
		}
		mu.Unlock()
		switch {
		case status == 0:
			inner.ServeHTTP(w, r)
		case status == http.StatusOK && call == "report":
			writeJSON(w, ReportAck{JobState: "running"})
		default:
			http.Error(w, "scripted", status)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// answer is a script that answers the nth call on route call with
// status, and every such call when n is 0.
func answer(call string, n, status int) func(string, int) int {
	return func(c string, i int) int {
		if c == call && (n == 0 || i == n) {
			return status
		}
		return 0
	}
}

// TestWorkerLoopOutcomes runs one worker against a scripted sweepd and
// checks how its loop sorts each call's outcome: an answer; a transient
// failure, which is an outage, logged once when it opens and once when
// the next answer closes it, and never an error; a permanent failure,
// which is an error; a cell whose run fails; and a report the server
// could not verify.
func TestWorkerLoopOutcomes(t *testing.T) {
	withBadCell := tinyMatrix()
	withBadCell[1].Impl = "NoSuchMPI"
	for _, tc := range []struct {
		name    string
		cells   []Experiment
		script  func(call string, n int) int
		want    WorkerReport
		outages int // "unreachable" lines, and as many "reachable again"
	}{
		// No answer has carried the server's poll hint yet, so the
		// worker waits DefaultWorkerPoll before it asks again.
		{"lease outage", tinyMatrix(), answer("lease", 1, http.StatusServiceUnavailable),
			WorkerReport{Leases: 1, Cells: 4, Outages: 1}, 1},
		{"lease refused", tinyMatrix(), answer("lease", 2, http.StatusBadRequest),
			WorkerReport{Leases: 1, Cells: 4, Errors: 1}, 0},
		// The lost report leaves its cell pending in the lease, which
		// outlives the test.
		{"report outage", tinyMatrix(), answer("report", 1, http.StatusServiceUnavailable),
			WorkerReport{Leases: 1, Cells: 4, Outages: 1}, 1},
		{"report refused", tinyMatrix(), answer("report", 1, http.StatusBadRequest),
			WorkerReport{Leases: 1, Cells: 4, Errors: 1}, 0},
		{"failed cell", withBadCell, nil,
			WorkerReport{Leases: 1, Cells: 4, Failed: 1}, 0},
		{"unverified", tinyMatrix()[:1], answer("report", 0, http.StatusOK),
			WorkerReport{Leases: 1, Cells: 1, Rejected: 1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := NewDiskCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			q := NewJobQueue(store, QueueConfig{TTL: time.Minute, Slices: 1, Poll: time.Millisecond})
			if _, err := q.Submit(tc.cells, 1); err != nil {
				t.Fatal(err)
			}
			srv := scriptedSweepd(t, q, store, tc.script)
			client, err := NewQueueClient(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := NewRemoteStore(srv.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			var log strings.Builder
			client.Log = &log
			rep := client.Work(WorkerConfig{ID: "w1", Runner: NewRunnerStore(1, rs), IdleExit: 2})
			if rep != tc.want {
				t.Errorf("report = %+v, want %+v\nlog: %s", rep, tc.want, log.String())
			}
			if got := strings.Count(log.String(), "sweepd unreachable"); got != tc.outages {
				t.Errorf("outage logged %d times, want %d:\n%s", got, tc.outages, log.String())
			}
			if got := strings.Count(log.String(), "reachable again"); got != tc.outages {
				t.Errorf("recovery logged %d times, want %d:\n%s", got, tc.outages, log.String())
			}
		})
	}
}

// TestWorkerRepublishesLostPush: when a worker's push fails (here one
// 503 with no retry window), the server cannot verify its report, and
// the Runner serves the cell from memory from then on, so nothing would
// push it again: every re-lease would be rejected, and a one-worker
// fleet would never finish the job. The worker publishes the result a
// second time and reports once more instead.
func TestWorkerRepublishesLostPush(t *testing.T) {
	store, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := NewJobQueue(store, QueueConfig{TTL: 200 * time.Millisecond, Slices: 1, Poll: time.Millisecond})
	st, err := q.Submit(tinyMatrix()[:2], 1)
	if err != nil {
		t.Fatal(err)
	}
	var puts atomic.Int32
	srv := scriptedSweepd(t, q, store, func(call string, n int) int {
		if call != "put" {
			return 0
		}
		puts.Store(int32(n))
		if n == 1 {
			return http.StatusServiceUnavailable
		}
		return 0
	})
	client, err := NewQueueClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRemoteStore(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan WorkerReport)
	go func() { done <- client.Work(WorkerConfig{ID: "w1", Runner: NewRunnerStore(1, rs), Stop: stop}) }()
	final := st
	for deadline := time.Now().Add(3 * time.Second); !final.Finished() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		final, _ = q.Status(st.ID)
	}
	close(stop)
	rep := <-done
	if final.State != "done" {
		t.Fatalf("job after 3s (15 lease TTLs) = %+v\nworker: %+v, %d pushes", final, rep, puts.Load())
	}
	if rep.Leases != 1 || rep.Rejected != 0 || puts.Load() != 3 {
		t.Errorf("worker %+v with %d pushes, want one lease, no rejected report and 3 pushes", rep, puts.Load())
	}
}
