package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
)

// syncBuffer lets the test read run's output while the server goroutine
// is still writing to it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunBadFlags covers rejection paths: the store directory is
// mandatory, the queue knobs must be sane, positionals are refused.
func TestRunBadFlags(t *testing.T) {
	var out, errOut syncBuffer
	for _, args := range [][]string{
		{},                             // no -cache
		{"-cache", ""},                 // explicit empty
		{"-cache", t.TempDir(), "pos"}, // positional argument
		{"-nope"},                      // unknown flag
		{"-cache", t.TempDir(), "-lease-ttl", "0s"},
		{"-cache", t.TempDir(), "-slices", "0"},
		{"-cache", t.TempDir(), "-poll", "0s"},
		{"-cache", t.TempDir(), "-addr", "definitely:not:an:addr"},
	} {
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunServesFleetAndShutsDown boots the real control plane on an
// ephemeral port, drives one tiny job through it over HTTP — submit,
// worker loop, results index, statusz — and exercises graceful shutdown
// and -v request logging.
func TestRunServesFleetAndShutsDown(t *testing.T) {
	var out, errOut syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-cache", t.TempDir(), "-addr", "127.0.0.1:0", "-lease-ttl", "5s", "-poll", "5ms", "-v"}, &out, &errOut)
	}()

	// The banner carries the bound address.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; out=%q err=%v", out.String(), errOut.String())
		}
		if s := out.String(); strings.Contains(s, "http://") {
			// The banner reads "... on http://ADDR (lease TTL ...)".
			base = "http://" + strings.Fields(strings.SplitN(s, "http://", 2)[1])[0]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v, %v", resp, err)
	}
	resp.Body.Close()

	// One 2-cell job through the whole stack: the exp package tests cover
	// the state machine; this proves the wired binary serves it.
	cells := exp.Sweep{
		Impls:      []string{"GridMPI"},
		Tunings:    []exp.Tuning{{}, {TCP: true}},
		Topologies: []exp.Topology{exp.Grid(1)},
		Workloads:  []exp.Workload{exp.PingPongWorkload([]int{1 << 10}, 2)},
	}.Experiments()
	client, err := exp.NewQueueClient(base)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Submit(cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	store, err := exp.NewRemoteStore(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := client.Work(exp.WorkerConfig{ID: "w", Runner: exp.NewRunnerStore(1, store), IdleExit: 3})
	if rep.Cells != 2 || rep.Failed != 0 || rep.Rejected != 0 {
		t.Fatalf("worker report = %+v", rep)
	}
	final, err := client.Job(st.ID)
	if err != nil || final.State != "done" || final.Computed != 2 {
		t.Fatalf("job = %+v, %v", final, err)
	}

	// The results index lists what the worker published.
	resp, err = http.Get(base + "/v1/results")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("index = %v, %v", resp, err)
	}
	var fps []string
	if err := json.NewDecoder(resp.Body).Decode(&fps); err != nil || len(fps) != 2 {
		t.Fatalf("index = %v, %v; want the job's 2 fingerprints", fps, err)
	}
	resp.Body.Close()

	// /statusz reports the store and the job side by side.
	resp, err = http.Get(base + "/statusz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz = %v, %v", resp, err)
	}
	var status exp.ServerStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Entries != 2 || len(status.Jobs) != 1 || status.Jobs[0].State != "done" {
		t.Fatalf("statusz = %+v", status)
	}

	// The banner announces the queue configuration.
	if !strings.Contains(out.String(), "lease TTL 5s") {
		t.Errorf("banner missing lease TTL: %q", out.String())
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(errOut.String(), "draining") {
		t.Errorf("no shutdown notice on stderr: %q", errOut.String())
	}
	if !strings.Contains(errOut.String(), "GET /healthz") {
		t.Errorf("-v did not log requests: %q", errOut.String())
	}

	// The store directory outlives the server: results land on disk.
	if !bytes.Contains([]byte(out.String()), []byte("sweepd: serving")) {
		t.Errorf("banner missing: %q", out.String())
	}
}

// startSweepd boots run() in a goroutine and waits for the banner to
// announce the bound address.
func startSweepd(t *testing.T, args []string) (base string, out, errOut *syncBuffer, done chan error) {
	t.Helper()
	out, errOut = &syncBuffer{}, &syncBuffer{}
	done = make(chan error, 1)
	go func() { done <- run(args, out, errOut) }()
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; out=%q err=%q", out.String(), errOut.String())
		}
		if s := out.String(); strings.Contains(s, "http://") {
			base = "http://" + strings.Fields(strings.SplitN(s, "http://", 2)[1])[0]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	return base, out, errOut, done
}

// stopSweepd delivers the shutdown signal and waits for run to return.
func stopSweepd(t *testing.T, done chan error) {
	t.Helper()
	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestRunRestartRecoversJournaledJobs: a -journal sweepd that goes down
// holding a submitted job comes back still holding it — same store,
// same journal directory, a fresh port — and a worker drains it to done.
func TestRunRestartRecoversJournaledJobs(t *testing.T) {
	cache, journal := t.TempDir(), t.TempDir()
	args := []string{"-cache", cache, "-journal", journal, "-addr", "127.0.0.1:0", "-drain-grace", "1s", "-poll", "5ms"}

	base1, _, _, done1 := startSweepd(t, args)
	cells := exp.Sweep{
		Impls:      []string{"GridMPI"},
		Tunings:    []exp.Tuning{{}, {TCP: true}},
		Topologies: []exp.Topology{exp.Grid(1)},
		Workloads:  []exp.Workload{exp.PingPongWorkload([]int{1 << 10}, 2)},
	}.Experiments()
	client1, err := exp.NewQueueClient(base1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client1.Submit(cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	// No workers: the job is still fully queued when the plane stops.
	stopSweepd(t, done1)

	base2, _, errOut2, done2 := startSweepd(t, args)
	if !strings.Contains(errOut2.String(), "recovered 1 jobs") {
		t.Errorf("no recovery banner on stderr: %q", errOut2.String())
	}
	client2, err := exp.NewQueueClient(base2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client2.Job(st.ID)
	if err != nil || got.State != "running" || got.Queued != 2 {
		t.Fatalf("recovered job = %+v, %v — want it running with both cells queued", got, err)
	}
	store, err := exp.NewRemoteStore(base2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := client2.Work(exp.WorkerConfig{ID: "w", Runner: exp.NewRunnerStore(1, store), IdleExit: 3})
	if rep.Cells != 2 || rep.Errors != 0 || rep.Rejected != 0 {
		t.Fatalf("worker report = %+v", rep)
	}
	final, err := client2.Job(st.ID)
	if err != nil || final.State != "done" || final.Computed != 2 {
		t.Fatalf("job after restart = %+v, %v", final, err)
	}
	stopSweepd(t, done2)
}
