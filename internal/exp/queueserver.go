package exp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
)

// Control-plane routes, compiled into client and server from the same
// constants so the protocol cannot drift (the pattern resultsPath set).
const (
	jobsPath  = "/v1/jobs"
	leasePath = "/v1/lease"
)

// jobIDPat matches the job IDs JobQueue issues; anything else cannot
// name a job and is rejected before it reaches the state machine.
var jobIDPat = regexp.MustCompile(`^j[0-9]{4,}$`)

// maxJobBytes bounds one submission body. A full-paper matrix is a few
// hundred kB of experiment JSON; the margin covers very large sweeps
// while keeping a confused client from buffering gigabytes server-side.
const maxJobBytes = 64 << 20

// submitRequest is the POST /v1/jobs body: the sweep's cells in the
// frozen experiment wire encoding, plus an optional slice count
// overriding the server default.
type submitRequest struct {
	Cells  []Experiment `json:"cells"`
	Slices int          `json:"slices,omitempty"`
}

// leaseRequest is the POST /v1/lease body.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// reportRequest is the POST /v1/jobs/<id>/report body.
type reportRequest struct {
	Lease       string `json:"lease"`
	Worker      string `json:"worker"`
	Fingerprint string `json:"fingerprint"`
	Failed      bool   `json:"failed,omitempty"`
	Err         string `json:"err,omitempty"`
}

// NewQueueHandler assembles the sweepd control plane: the CacheServer's
// results protocol (workers' RemoteStores push verified entries through
// it, clients pull finished cells from it) plus the job-queue routes:
//
//	POST /v1/jobs               submit a sweep matrix -> JobStatus
//	GET  /v1/jobs               all jobs, submission order
//	GET  /v1/jobs/{id}          one job's progress snapshot
//	POST /v1/jobs/{id}/report   close out one leased cell
//	POST /v1/lease              pull one slice of pending work
//	GET  /statusz               store counters, job list, queue tuning
//	                            and journal accounting
//
// The queue must be backed by the same DiskCache the CacheServer
// serves: done-verification reads the store that workers publish into.
func NewQueueHandler(q *JobQueue, cs *CacheServer) http.Handler {
	mux := http.NewServeMux()
	cs.register(mux)
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		n, err := cs.cache.Len()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, ServerStatus{Entries: n, Served: cs.Stats(), Jobs: q.Jobs(), Queue: q.Config(), Journal: q.JournalStats()})
	})
	mux.HandleFunc("POST "+jobsPath, func(w http.ResponseWriter, r *http.Request) {
		var req submitRequest
		if !readJSON(w, r, maxJobBytes, "submission", &req) {
			return
		}
		st, err := q.Submit(req.Cells, req.Slices)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET "+jobsPath, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, q.Jobs())
	})
	mux.HandleFunc("GET "+jobsPath+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathKey(w, r, "id", jobIDPat)
		if !ok {
			return
		}
		st, ok := q.Status(id)
		if !ok {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("POST "+jobsPath+"/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		id, ok := pathKey(w, r, "id", jobIDPat)
		if !ok {
			return
		}
		var req reportRequest
		if !readJSON(w, r, 1<<20, "report", &req) {
			return
		}
		if !fingerprintPat.MatchString(req.Fingerprint) {
			http.Error(w, fmt.Sprintf("bad fingerprint %q", req.Fingerprint), http.StatusBadRequest)
			return
		}
		ack, err := q.Report(id, req.Lease, req.Worker, req.Fingerprint, req.Failed, req.Err)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, ack)
	})
	mux.HandleFunc("POST "+leasePath, func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !readJSON(w, r, 1<<20, "lease request", &req) {
			return
		}
		if req.Worker == "" {
			http.Error(w, "lease request names no worker", http.StatusBadRequest)
			return
		}
		// Every lease response advertises the idle-poll hint, so one
		// sweepd flag paces the whole fleet.
		w.Header().Set(pollHeader, strconv.FormatInt(q.PollHint().Milliseconds(), 10))
		grant, ok := q.Lease(req.Worker)
		if !ok {
			// Nothing to hand out right now; the worker polls again.
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, grant)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// readJSON decodes a request body of at most limit bytes into v. When
// it cannot, it answers 400 naming what was parsed and returns false.
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("parse %s: %v", what, err), http.StatusBadRequest)
		return false
	}
	return true
}
