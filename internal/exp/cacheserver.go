package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync/atomic"
)

// CacheServer exposes a DiskCache directory over HTTP — the results
// half of the cmd/sweepd handler (NewQueueHandler), which RemoteStore
// speaks to — and counts what it serves, so a fleet can be debugged
// from /statusz instead of server logs.
//
// Routes:
//
//	GET  /healthz               liveness probe ("ok")
//	GET  /v1/results            sorted JSON array of committed fingerprints
//	HEAD /v1/results/<fp>       200 when a loadable entry exists, else 404
//	GET  /v1/results/<fp>       the entry's schema-version envelope
//	PUT  /v1/results/<fp>       ingest one envelope
//
// Serving re-verifies: GET/HEAD answer 200 only for entries that pass
// the full trust gate (parse + current DiskSchemaVersion + fingerprint
// re-hash), so a corrupt file on the server never propagates. Ingest
// re-verifies harder: a PUT whose body fails the same gate — a stale
// peer from a foreign schema generation, an entry whose experiment does
// not hash back to the URL's fingerprint, plain garbage — is rejected
// with 422 before it touches the directory, so no peer can poison the
// shared store. Accepted entries go through DiskCache.Store's atomic
// temp-file+rename, which makes concurrent PUTs of one fingerprint
// idempotent (content-addressed writers always carry identical
// payloads).
type CacheServer struct {
	cache *DiskCache

	hits   int64 // entries served (GET/HEAD 200)
	misses int64 // clean 404s on the entry routes
	puts   int64 // accepted ingests
	errors int64 // rejected or failed requests (422, 413, 400, 500)
}

// NewCacheServer wraps a DiskCache in the HTTP serving layer.
func NewCacheServer(c *DiskCache) *CacheServer { return &CacheServer{cache: c} }

// Stats reports the served/ingested accounting in RemoteStats form —
// the same shape the client side prints, seen from the server: Hits
// are entries served, Misses clean 404s, Pushes accepted PUTs, Errors
// rejected or failed requests.
func (s *CacheServer) Stats() RemoteStats {
	return RemoteStats{
		RemoteHits: atomic.LoadInt64(&s.hits),
		Misses:     atomic.LoadInt64(&s.misses),
		Pushes:     atomic.LoadInt64(&s.puts),
		Errors:     atomic.LoadInt64(&s.errors),
	}
}

// ServerStatus is the /statusz document: how many verified entries the
// directory holds, what the server has served since boot, and the
// control plane's state.
type ServerStatus struct {
	// Entries counts committed fingerprints in the cache directory.
	Entries int `json:"entries"`
	// Served is the request accounting (see CacheServer.Stats).
	Served RemoteStats `json:"served"`
	// Jobs is every submitted job's progress, omitted while there are
	// none.
	Jobs []JobStatus `json:"jobs,omitempty"`
	// Queue is the control plane's tuning (lease TTL, slices, steal
	// threshold, poll hint).
	Queue QueueConfigStatus `json:"queue"`
	// Journal is the write-ahead journal accounting, present only on a
	// sweepd server running with -journal.
	Journal *JournalStats `json:"journal,omitempty"`
}

// register installs the health and results routes on the control
// plane's mux: the results protocol a worker's RemoteStore speaks.
func (s *CacheServer) register(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET "+resultsPath, func(w http.ResponseWriter, r *http.Request) {
		fps, err := s.cache.Fingerprints()
		if err != nil {
			atomic.AddInt64(&s.errors, 1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if fps == nil {
			fps = []string{} // an empty store is "[]", not "null"
		}
		w.Header().Set(schemaHeader, strconv.Itoa(DiskSchemaVersion))
		writeJSON(w, fps)
	})
	mux.HandleFunc("GET "+resultsPath+"/{fp}", func(w http.ResponseWriter, r *http.Request) {
		fp, ok := pathKey(w, r, "fp", fingerprintPat)
		if !ok {
			return
		}
		res, ok := s.cache.Load(fp)
		if !ok {
			atomic.AddInt64(&s.misses, 1)
			http.NotFound(w, r)
			return
		}
		blob, err := json.Marshal(diskEntry{Schema: DiskSchemaVersion, Result: res})
		if err != nil {
			atomic.AddInt64(&s.errors, 1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		atomic.AddInt64(&s.hits, 1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(schemaHeader, strconv.Itoa(DiskSchemaVersion))
		w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
		w.Write(blob)
	})
	mux.HandleFunc("PUT "+resultsPath+"/{fp}", func(w http.ResponseWriter, r *http.Request) {
		fp, ok := pathKey(w, r, "fp", fingerprintPat)
		if !ok {
			return
		}
		blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEntryBytes))
		if err != nil {
			atomic.AddInt64(&s.errors, 1)
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, fmt.Sprintf("entry exceeds %d bytes", maxEntryBytes), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, fmt.Sprintf("read entry: %v", err), http.StatusBadRequest)
			return
		}
		res, err := decodeEntry(blob, fp)
		if err != nil {
			// The one status RemoteStore surfaces loudly: the peer's
			// entry is untrustworthy and was refused, not stored.
			atomic.AddInt64(&s.errors, 1)
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		if err := s.cache.Store(fp, res); err != nil {
			atomic.AddInt64(&s.errors, 1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		atomic.AddInt64(&s.puts, 1)
		w.WriteHeader(http.StatusNoContent)
	})
}

// pathKey extracts the path element name and checks it against pat.
// Anything else — not exactly a fingerprint, not a job ID JobQueue
// issues — cannot name an entry or a job and is 404: rejecting it up
// front keeps path data out of filesystem operations and the queue's
// state machine entirely.
func pathKey(w http.ResponseWriter, r *http.Request, name string, pat *regexp.Regexp) (string, bool) {
	v := r.PathValue(name)
	if !pat.MatchString(v) {
		http.NotFound(w, r)
		return "", false
	}
	return v, true
}
