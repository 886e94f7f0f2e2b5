package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// resultsPath is the HTTP route under which cache entries live:
// GET/HEAD/PUT <base>/v1/results/<fingerprint>, and GET <base>/v1/results
// for the fingerprint index. Client and server are compiled from the
// same constant, so the protocol cannot drift between them.
const resultsPath = "/v1/results"

// schemaHeader carries the server's DiskSchemaVersion on entry
// responses, so peers can tell a foreign-generation store apart from a
// missing entry without parsing bodies.
const schemaHeader = "X-Exp-Schema"

// maxEntryBytes bounds a single serialized entry on the wire (and on
// ingest, where the body is buffered in memory before verification).
// Real entries are a few kB to a few hundred kB of JSON; the generous
// margin covers full-scale trace workloads while keeping a confused
// peer from streaming unbounded garbage into server memory.
const maxEntryBytes = 16 << 20

// fingerprintPat matches exactly the strings Experiment.Fingerprint
// produces (16 lowercase hex digits). The server rejects any other path
// element, so a request can never escape the cache directory or create
// entries a Load would not find.
var fingerprintPat = regexp.MustCompile(`^[0-9a-f]{16}$`)

// server is one connection to a cmd/sweepd server, the part RemoteStore
// and QueueClient share: the base URL, the HTTP client, and the retry
// policy of every call.
type server struct {
	base   string // http[s]://host:port, without a trailing slash
	client *http.Client

	// Retry, when its Window is positive, retries transient failures
	// (connection refused, timeouts, 5xx) of every call with capped
	// exponential backoff, so a briefly restarting sweepd looks like
	// latency instead of a failure. The zero value fails on the first
	// error.
	Retry Backoff
}

// dial checks a sweepd URL (http[s]://host:port) and returns the
// connection to it. It sends nothing.
func dial(baseURL string) (server, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return server{}, fmt.Errorf("exp: bad sweepd URL %q (want http[s]://host:port)", baseURL)
	}
	return server{base: strings.TrimSuffix(u.String(), "/"), client: &http.Client{Timeout: 30 * time.Second}}, nil
}

// RemoteStore is a Store served by a remote cmd/sweepd server: loads
// GET the entry by fingerprint, stores PUT it back, and an optional
// local DiskCache acts as a read-through/write-behind tier (remote hits
// are copied down so the next run is warm; fresh results land in both).
//
// Every failure mode degrades to a miss — server down, timeout, foreign
// schema generation, corrupt or mismatched entry — so a sweep pointed at
// a dead or poisoned server still completes by local compute; the Stats
// counters record what happened. Entries fetched from the remote pass
// through the same verification gate as disk reads (schema generation +
// fingerprint re-hash), so a stale or foreign peer can never inject a
// result for the wrong experiment. Its Retry, when set, retries the
// transient failures of fetches, pushes and index reads, so a briefly
// restarting server looks like latency instead of a miss.
type RemoteStore struct {
	server
	local *DiskCache

	localHits   int64 // served by the local read-through tier
	remoteHits  int64 // fetched (and verified) from the server
	misses      int64 // the server had no entry (clean 404)
	pushes      int64 // results published to the server
	errors      int64 // failed fetches/pushes, rejected or corrupt entries
	localErrors int64 // failed write-behinds into the local tier
}

// NewRemoteStore connects to a cmd/sweepd server at baseURL
// (http[s]://host:port). local, when non-nil, becomes the
// read-through/write-behind tier; nil means remote-only (every load is
// a round trip, every store a publish).
func NewRemoteStore(baseURL string, local *DiskCache) (*RemoteStore, error) {
	srv, err := dial(baseURL)
	if err != nil {
		return nil, err
	}
	return &RemoteStore{server: srv, local: local}, nil
}

// RemoteStats is the RemoteStore's served/published accounting. The
// same shape serves both sides of the wire: a client's view of one
// store, and — via CacheServer.Stats, where Hits/Misses/Pushes count
// requests answered rather than made — the /statusz document of a
// sweepd server.
type RemoteStats struct {
	// LocalHits were served by the local read-through tier without a
	// round trip.
	LocalHits int64 `json:"local_hits"`
	// RemoteHits were fetched from the server and verified.
	RemoteHits int64 `json:"remote_hits"`
	// Misses are clean 404s: the server is healthy but has no entry.
	Misses int64 `json:"misses"`
	// Pushes counts results published to the server.
	Pushes int64 `json:"pushes"`
	// Errors counts degraded remote operations: unreachable server,
	// non-2xx responses, rejected pushes, and served entries that
	// failed verification. Each one turned into a miss or a skipped
	// publish; none affected the results handed to callers.
	Errors int64 `json:"errors"`
	// LocalErrors counts failed write-behinds into the local tier —
	// a local-disk problem, not a server one. The remote hits stood;
	// the affected entries are simply re-fetched next run.
	LocalErrors int64 `json:"local_errors"`
}

// String is the one-line "remote:" summary the CLI front-ends print on
// stderr. Served hits headline the line whichever tier answered them;
// local-tier write failures (a local-disk problem, not a server one)
// appear only when present.
func (s RemoteStats) String() string {
	line := fmt.Sprintf("remote: %d hits (%d from the local tier), %d misses, %d pushed, %d errors",
		s.RemoteHits+s.LocalHits, s.LocalHits, s.Misses, s.Pushes, s.Errors)
	if s.LocalErrors > 0 {
		line += fmt.Sprintf(", %d local-tier write failures", s.LocalErrors)
	}
	return line
}

// Stats snapshots the counters.
func (s *RemoteStore) Stats() RemoteStats {
	return RemoteStats{
		LocalHits:   atomic.LoadInt64(&s.localHits),
		RemoteHits:  atomic.LoadInt64(&s.remoteHits),
		Misses:      atomic.LoadInt64(&s.misses),
		Pushes:      atomic.LoadInt64(&s.pushes),
		Errors:      atomic.LoadInt64(&s.errors),
		LocalErrors: atomic.LoadInt64(&s.localErrors),
	}
}

// Load implements Store: local tier first, then the server. A remote
// hit is written behind into the local tier; any failure is a miss.
func (s *RemoteStore) Load(fp string) (Result, bool) {
	if s.local != nil {
		if res, ok := s.local.Load(fp); ok {
			atomic.AddInt64(&s.localHits, 1)
			return res, true
		}
	}
	res, ok, err := s.fetch(fp)
	if err != nil {
		atomic.AddInt64(&s.errors, 1)
		return Result{}, false
	}
	if !ok {
		atomic.AddInt64(&s.misses, 1)
		return Result{}, false
	}
	atomic.AddInt64(&s.remoteHits, 1)
	if s.local != nil {
		if err := s.local.Store(fp, res); err != nil {
			atomic.AddInt64(&s.localErrors, 1) // the hit itself still stands
		}
	}
	return res, true
}

// Store implements Store: write behind to the local tier, then publish
// to the server. A failed publish is counted but never fails the call —
// the local entry (when a tier exists) already preserves the result, and
// without one the result simply stays uncached, exactly like a DiskCache
// write failure.
func (s *RemoteStore) Store(fp string, res Result) error {
	var localErr error
	if s.local != nil {
		localErr = s.local.Store(fp, res)
	}
	if err := s.push(fp, res); err != nil {
		atomic.AddInt64(&s.errors, 1)
	} else {
		atomic.AddInt64(&s.pushes, 1)
	}
	return localErr
}

// fetch GETs one entry.
// ok == false with a nil error is a clean 404; any other defect
// (network, non-2xx, oversized or unverifiable body) is an error.
func (s *RemoteStore) fetch(fp string) (res Result, ok bool, err error) {
	err = s.call(http.MethodGet, resultsPath+"/"+fp, nil, func(resp *http.Response) error {
		// A foreign-generation store announces itself in the header: fail
		// before parsing the body (decodeEntry would catch it anyway, but
		// this names the real problem — the peer, not the entry).
		if h := resp.Header.Get(schemaHeader); h != "" && h != strconv.Itoa(DiskSchemaVersion) {
			return fmt.Errorf("exp: remote store serves schema generation %s (this build reads %d)", h, DiskSchemaVersion)
		}
		blob, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
		if err != nil {
			return err
		}
		if len(blob) > maxEntryBytes {
			return fmt.Errorf("exp: remote cache entry %s exceeds %d bytes", fp, maxEntryBytes)
		}
		res, err = decodeEntry(blob, fp)
		return err
	})
	if errors.Is(err, errNotFound) {
		return Result{}, false, nil
	}
	return res, err == nil, err
}

// push PUTs one entry's schema-version envelope to the server.
func (s *RemoteStore) push(fp string, res Result) error {
	blob, err := json.Marshal(diskEntry{Schema: DiskSchemaVersion, Result: res})
	if err != nil {
		return fmt.Errorf("exp: marshal cache entry: %w", err)
	}
	return s.call(http.MethodPut, resultsPath+"/"+fp, blob, nil)
}

// drainLimit bounds how much of a response body closeBody reads past
// what its caller consumed. Go's transport reuses a keep-alive
// connection only after the body was read to EOF, so a 404 or an error
// reply closed unread makes the next request redial; a reply longer
// than this is not worth the read to keep its connection.
const drainLimit = 4 << 10

// closeBody drains up to drainLimit of what is left of a response body
// and closes it, so short replies leave their connection reusable.
func closeBody(body io.ReadCloser) {
	_, _ = io.CopyN(io.Discard, body, drainLimit) // a failed drain only costs the connection
	body.Close()
}

// statusError is a non-2xx answer from a fleet server: the request, the
// status code and the start of the server's text.
type statusError struct {
	Op   string
	Code int
	Text string
}

func (e *statusError) Error() string {
	msg := fmt.Sprintf("exp: %d %s", e.Code, http.StatusText(e.Code))
	if e.Op != "" {
		msg = fmt.Sprintf("exp: %s: %d %s", e.Op, e.Code, http.StatusText(e.Code))
	}
	if e.Text != "" {
		msg += ": " + e.Text
	}
	return msg
}

// errNotFound is every 404 answer: one shared value, so a cache miss
// formats no error and reads no error text.
var errNotFound = &statusError{Code: http.StatusNotFound}

// call is one fleet-client call of method on path: one request per
// attempt, retried per s.Retry. The body (nil for none) is replayed
// from the start on every attempt. Transport errors and 5xx answers are
// Transient; a 404 is errNotFound; any other non-2xx answer is a
// *statusError carrying the server's text. A 2xx response goes to read,
// when non-nil. The response body is closed on every path.
func (s *server) call(method, path string, body []byte, read func(*http.Response) error) error {
	return s.Retry.Do(func() error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, s.base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return Transient(err)
		}
		defer closeBody(resp.Body)
		switch {
		case resp.StatusCode == http.StatusNotFound:
			return errNotFound
		case resp.StatusCode/100 != 2:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			err := &statusError{Op: method + " " + req.URL.Path, Code: resp.StatusCode, Text: string(bytes.TrimSpace(msg))}
			if resp.StatusCode/100 == 5 {
				return Transient(err)
			}
			return err
		case read != nil:
			return read(resp)
		}
		return nil
	})
}

// get GETs path and decodes the JSON answer into out.
func (s *server) get(path string, out any) error {
	return s.call(http.MethodGet, path, nil, func(resp *http.Response) error {
		return decodeBody(resp, out)
	})
}

// decodeBody decodes a JSON response body into v.
func decodeBody(resp *http.Response, v any) error {
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("exp: %s %s: bad response: %w", resp.Request.Method, resp.Request.URL.Path, err)
	}
	return nil
}

// SyncReport summarizes one explicit Push or Pull pass.
type SyncReport struct {
	// Scanned entries existed on the source side.
	Scanned int
	// Transferred entries were actually copied.
	Transferred int
	// Skipped entries were already present on the destination.
	Skipped int
	// Failed entries were unreadable at the source or failed to
	// transfer; rerunning the sync retries exactly these.
	Failed int
}

// String is the one-line pass summary the -push/-pull flags print.
func (r SyncReport) String() string {
	return fmt.Sprintf("%d entries scanned: %d transferred, %d already present, %d failed",
		r.Scanned, r.Transferred, r.Skipped, r.Failed)
}

// Push is the one-shot sync behind `sweep -push`: upload every local
// entry the server does not already hold. Presence is decided by one
// fetch of the server's fingerprint index, not a round trip per entry
// (content-addressed entries never differ, so presence is enough — a
// corrupt entry on the server is its own problem: its readers treat it
// as a miss and repair it on recompute). Local entries that fail to
// load are counted as failed, the same defect a local replay would
// re-run.
func (s *RemoteStore) Push() (SyncReport, error) {
	if s.local == nil {
		return SyncReport{}, fmt.Errorf("exp: push needs a local cache directory")
	}
	fps, err := s.local.Fingerprints()
	if err != nil {
		return SyncReport{}, err
	}
	var remote []string
	if err := s.get(resultsPath, &remote); err != nil {
		return SyncReport{}, err
	}
	present := make(map[string]bool, len(remote))
	for _, fp := range remote {
		present[fp] = true
	}
	var rep SyncReport
	for _, fp := range fps {
		rep.Scanned++
		if present[fp] {
			rep.Skipped++
			continue
		}
		res, ok := s.local.Load(fp)
		if !ok {
			rep.Failed++
			continue
		}
		if err := s.push(fp, res); err != nil {
			rep.Failed++
			continue
		}
		rep.Transferred++
	}
	return rep, nil
}

// Pull is the one-shot sync behind `sweep -pull`: download every entry
// in the server's index that the local tier cannot already serve
// (unreadable local entries are re-fetched, repairing them in place).
// Entries that fail verification on the way down are counted as failed,
// never written.
func (s *RemoteStore) Pull() (SyncReport, error) {
	if s.local == nil {
		return SyncReport{}, fmt.Errorf("exp: pull needs a local cache directory")
	}
	var fps []string
	if err := s.get(resultsPath, &fps); err != nil {
		return SyncReport{}, err
	}
	var rep SyncReport
	for _, fp := range fps {
		rep.Scanned++
		if _, ok := s.local.Load(fp); ok {
			rep.Skipped++
			continue
		}
		res, ok, err := s.fetch(fp)
		if err != nil || !ok {
			rep.Failed++
			continue
		}
		if err := s.local.Store(fp, res); err != nil {
			rep.Failed++
			continue
		}
		rep.Transferred++
	}
	return rep, nil
}
