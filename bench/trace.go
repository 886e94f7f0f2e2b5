package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
)

// Trace thread IDs: rounds and probes on 0, the two clients (or fleet
// workers) on 1 and 2. Spans that can overlap in time take lanes: the
// fleet server's requests from serverTID up, concurrent store calls from
// storeTID up.
const (
	serverTID = 10
	storeTID  = 20
)

// tracer holds Chrome trace-event spans in memory until the run ends. A
// nil *tracer records nothing: the untraced run passes nil everywhere.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	pid    int
	events []traceEvent
	lanes  map[int]bool // lanes in use
}

// traceEvent is one Chrome trace-event record: a complete ("X") span or
// a metadata ("M") record naming a process.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now(), lanes: make(map[int]bool)} }

// process starts a new trace process (one per workload, plus one for
// the probes); later spans belong to it.
func (t *tracer) process(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pid++
	t.events = append(t.events, traceEvent{Name: "process_name", Ph: "M", PID: t.pid, Args: map[string]any{"name": name}})
}

// span records one complete span that started at start and lasted d.
func (t *tracer) span(cat, name string, tid int, start time.Time, d time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS:  float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		Dur: float64(d.Nanoseconds()) / 1e3,
		PID: t.pid, TID: tid, Args: args,
	})
}

// lane takes the lowest free thread ID at or above base for a span that
// may overlap others: trace viewers nest a thread's spans and cannot show
// overlapping ones. laneSpan records the span and frees the lane.
func (t *tracer) lane(base int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := base
	for t.lanes[id] {
		id++
	}
	t.lanes[id] = true
	return id
}

func (t *tracer) laneSpan(cat, name string, lane int, start time.Time, d time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.span(cat, name, lane, start, d, args)
	t.mu.Lock()
	delete(t.lanes, lane)
	t.mu.Unlock()
}

// write saves the spans as a Chrome trace-event JSON object, the format
// Perfetto and chrome://tracing open.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(map[string]any{"traceEvents": t.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// meteredStore wraps the Store a Runner reads through, timing each call.
// Behind a fleet worker it also times each cell the worker runs: from
// the Runner's store lookup (always a miss on a fresh fleet store) to the
// end of its verified publish.
type meteredStore struct {
	inner exp.Store
	tr    *tracer
	// worker is the fleet worker whose thread the spans go on; zero for
	// a store shared by both clients, whose calls take lanes.
	worker int
	events map[string]uint64 // traced: kernel events per fingerprint

	mu           sync.Mutex
	loadUS       []float64
	hits, misses int
	started      map[string]time.Time
	cellMS       []float64
}

func newMeteredStore(inner exp.Store, tr *tracer, worker int, events map[string]uint64) *meteredStore {
	return &meteredStore{inner: inner, tr: tr, worker: worker, events: events, started: make(map[string]time.Time)}
}

// thread picks the trace thread of one call: the worker's, or a lane.
func (s *meteredStore) thread() int {
	if s.worker != 0 {
		return s.worker
	}
	return s.tr.lane(storeTID)
}

// record records one call's span on the thread thread picked.
func (s *meteredStore) record(name string, tid int, start time.Time, d time.Duration, args map[string]any) {
	if s.worker != 0 {
		s.tr.span("store", name, tid, start, d, args)
	} else {
		s.tr.laneSpan("store", name, tid, start, d, args)
	}
}

func (s *meteredStore) Load(fp string) (exp.Result, bool) {
	tid := s.thread()
	t0 := time.Now()
	res, ok := s.inner.Load(fp)
	d := time.Since(t0)
	s.mu.Lock()
	s.loadUS = append(s.loadUS, float64(d.Nanoseconds())/1e3)
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.started[fp] = t0
	s.mu.Unlock()
	s.record("load", tid, t0, d, map[string]any{"fingerprint": fp, "hit": ok})
	return res, ok
}

func (s *meteredStore) Store(fp string, res exp.Result) error {
	tid := s.thread()
	t0 := time.Now()
	err := s.inner.Store(fp, res)
	end := time.Now()
	s.record("store", tid, t0, end.Sub(t0), map[string]any{"fingerprint": fp})
	s.mu.Lock()
	start, ok := s.started[fp]
	if ok {
		s.cellMS = append(s.cellMS, float64(end.Sub(start).Nanoseconds())/1e6)
	}
	s.mu.Unlock()
	if ok && s.worker != 0 {
		kind := res.Exp.Workload.Kind
		s.tr.span("cell", kind, tid, start, end.Sub(start), map[string]any{
			"fingerprint": fp, "kind": kind, "events": s.events[fp],
		})
	}
	return err
}

// httpMeter is the middleware wrapped around the fleet server's handler.
// It always counts 5xx answers (they are failures); with a tracer it
// also times every route and records one span per request.
type httpMeter struct {
	next http.Handler
	tr   *tracer

	status5xx atomic.Int64

	mu       sync.Mutex
	routeMS  map[string][]float64
	requests int
	empty    int // lease polls answered 204: the worker waited
}

func newHTTPMeter(next http.Handler, tr *tracer) *httpMeter {
	return &httpMeter{next: next, tr: tr, routeMS: make(map[string][]float64)}
}

// statusWriter remembers the status code a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// routeNames maps the control plane's mux patterns to metric names.
var routeNames = map[string]string{
	"POST /v1/jobs":             "submit",
	"POST /v1/lease":            "lease",
	"POST /v1/jobs/{id}/report": "report",
	"PUT /v1/results/{fp}":      "put",
	"GET /v1/results/{fp}":      "get",
}

func (m *httpMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	lane := m.tr.lane(serverTID)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	t0 := time.Now()
	m.next.ServeHTTP(sw, r)
	d := time.Since(t0)
	if sw.code >= 500 {
		m.status5xx.Add(1)
	}
	if m.tr == nil {
		return
	}
	// The mux records the matched pattern on the request it routed.
	route, ok := routeNames[r.Pattern]
	if !ok {
		route = r.Pattern
	}
	m.mu.Lock()
	m.routeMS[route] = append(m.routeMS[route], float64(d.Nanoseconds())/1e6)
	m.requests++
	if route == "lease" && sw.code == http.StatusNoContent {
		m.empty++
	}
	m.mu.Unlock()
	var args map[string]any
	if fp := r.PathValue("fp"); fp != "" {
		args = map[string]any{"fingerprint": fp}
	}
	m.tr.laneSpan("http", route, lane, t0, d, args)
}
