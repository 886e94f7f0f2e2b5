package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"
)

// pollHeader carries the server's idle-poll hint (milliseconds) on
// lease responses, so a fleet tunes its polling cadence from one
// sweepd flag instead of per-worker configuration.
const pollHeader = "X-Sweepd-Poll-MS"

// QueueClient speaks the sweepd control-plane protocol: submitting
// jobs, polling their progress, and — for workers — pulling leases and
// reporting cells. Results never travel through this client: workers
// publish them via a RemoteStore pointed at the same server, and
// submitters pull them back through the identical verified read path.
//
// Its Retry, when set, retries the transient failures of every call —
// how a fleet rides through a sweepd restart.
type QueueClient struct {
	server

	// Log, when non-nil, receives WaitJob's outage lines (see outage),
	// and Work's lines per lease, per defect and per outage, prefixed
	// "worker <id>:".
	Log io.Writer

	pollHintMS atomic.Int64 // server-advertised idle poll, from pollHeader
}

// NewQueueClient connects to a cmd/sweepd server at baseURL
// (http[s]://host:port).
func NewQueueClient(baseURL string) (*QueueClient, error) {
	srv, err := dial(baseURL)
	if err != nil {
		return nil, err
	}
	return &QueueClient{server: srv}, nil
}

func (c *QueueClient) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// pollHint returns the server-advertised idle-poll interval, zero until
// a lease response has carried one.
func (c *QueueClient) pollHint() time.Duration {
	return time.Duration(c.pollHintMS.Load()) * time.Millisecond
}

// outage is the one rule the fleet's client loops follow when sweepd
// cannot be reached: the first transient failure opens an outage and
// logs it, and the next answer closes it and logs how long it lasted.
type outage struct {
	logf  func(format string, args ...any)
	since time.Time // when the open outage began; zero while sweepd answers
}

// observe records one call's outcome, nil for an answer or a transient
// error, and reports whether the call opened an outage.
func (o *outage) observe(err error) (opened bool) {
	switch {
	case err == nil && !o.since.IsZero():
		o.logf("sweepd reachable again after %v", time.Since(o.since).Round(time.Millisecond))
		o.since = time.Time{}
	case err != nil && o.since.IsZero():
		o.since = time.Now()
		o.logf("sweepd unreachable, waiting for it to return: %v", err)
		return true
	}
	return false
}

// post sends one JSON request and decodes the JSON response into out,
// retrying transient failures per c.Retry. A 204 returns ok == false
// with no error (the "nothing for you" lease answer); any non-2xx
// status is an error carrying the server's text — IsTransient on 5xx
// (the server may be restarting), permanent on 4xx (the request itself
// was rejected; retrying cannot help).
func (c *QueueClient) post(path string, in, out any) (ok bool, err error) {
	blob, err := json.Marshal(in)
	if err != nil {
		return false, fmt.Errorf("exp: marshal %s request: %w", path, err)
	}
	err = c.call(http.MethodPost, path, blob, func(resp *http.Response) error {
		if h := resp.Header.Get(pollHeader); h != "" {
			if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
				c.pollHintMS.Store(ms)
			}
		}
		if resp.StatusCode == http.StatusNoContent {
			return nil
		}
		ok = true
		return decodeBody(resp, out)
	})
	return ok, err
}

// Submit registers a sweep matrix and returns the job's status —
// possibly already done, when every cell resolved from the server's
// store. slices <= 0 uses the server default.
func (c *QueueClient) Submit(cells []Experiment, slices int) (JobStatus, error) {
	var st JobStatus
	if _, err := c.post(jobsPath, submitRequest{Cells: cells, Slices: slices}, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Job fetches one job's progress snapshot.
func (c *QueueClient) Job(id string) (JobStatus, error) {
	var st JobStatus
	if err := c.get(jobsPath+"/"+url.PathEscape(id), &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Lease pulls one slice of pending work for the named worker. A nil
// grant with a nil error means the queue has nothing right now.
func (c *QueueClient) Lease(worker string) (*LeaseGrant, error) {
	var grant LeaseGrant
	ok, err := c.post(leasePath, leaseRequest{Worker: worker}, &grant)
	if err != nil || !ok {
		return nil, err
	}
	return &grant, nil
}

// Report closes out one cell of a lease (see JobQueue.Report).
func (c *QueueClient) Report(job, lease, worker, fp string, failed bool, errMsg string) (ReportAck, error) {
	var ack ReportAck
	req := reportRequest{Lease: lease, Worker: worker, Fingerprint: fp, Failed: failed, Err: errMsg}
	if _, err := c.post(jobsPath+"/"+url.PathEscape(job)+"/report", req, &ack); err != nil {
		return ReportAck{}, err
	}
	return ack, nil
}

// WaitJob polls a job until it leaves the running state, invoking
// progress (when non-nil) on every snapshot. The two failure modes get
// different treatment: a rejected request (unknown job, bad response)
// fails fast with the server's text, while an unreachable sweepd — when
// c.Retry opts in — is an outage to ride out: logged once, polled
// through, and only fatal after four consecutive retry windows without
// an answer (a restarting sweepd with a journal comes back holding the
// job, so patience is the correct default).
func (c *QueueClient) WaitJob(id string, poll time.Duration, progress func(JobStatus)) (JobStatus, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	down := outage{logf: c.logf}
	for {
		st, err := c.Job(id)
		if err != nil && (!IsTransient(err) || c.Retry.Window <= 0) {
			return JobStatus{}, err
		}
		down.observe(err)
		if err == nil {
			if progress != nil {
				progress(st)
			}
			if st.Finished() {
				return st, nil
			}
		} else if d := time.Since(down.since); d > 4*c.Retry.Window {
			return JobStatus{}, fmt.Errorf("exp: sweepd unreachable for %v: %w", d.Round(time.Second), err)
		}
		time.Sleep(poll)
	}
}

// WorkerConfig drives one Work loop.
type WorkerConfig struct {
	// ID names the worker in leases and liveness reporting.
	ID string
	// Runner executes leased cells. Its backing store must be a
	// RemoteStore pointed at the same sweepd server, so every computed
	// result publishes through the verified ingest path before the
	// worker reports the cell done — that publish is what Report's
	// server-side verification checks. When the server cannot verify a
	// cell, Work publishes its result through that store once more.
	Runner *Runner
	// IdleExit, when positive, ends the loop after this many
	// consecutive empty polls (a server that stays unreachable counts
	// too); zero polls forever.
	IdleExit int
	// Stop, when non-nil, requests a graceful exit: the loop checks it
	// before each lease and between cells, so the cell in flight when
	// the channel closes still completes and reports before the loop
	// returns.
	Stop <-chan struct{}
}

// WorkerReport summarizes one Work loop.
type WorkerReport struct {
	// Leases counts grants processed.
	Leases int
	// Cells counts cells run and reported (computed or served from a
	// cache tier; failures included).
	Cells int
	// Failed counts cells whose run ended in Result.Err.
	Failed int
	// Dropped counts cells skipped because the queue reassigned them
	// to another worker mid-lease.
	Dropped int
	// Rejected counts done reports the server refused to verify, even
	// after the worker published the result a second time.
	Rejected int
	// Errors counts permanent transport defects (rejected lease or
	// report calls). Transient unreachability is not an error — it is
	// counted in Outages and ridden out; the queue re-leases anything
	// a lost report left pending.
	Errors int
	// Outages counts transitions into "sweepd unreachable" the loop
	// survived.
	Outages int
}

// String is the worker's one-line exit summary.
func (r WorkerReport) String() string {
	line := fmt.Sprintf("worker: %d leases, %d cells (%d failed, %d dropped), %d rejected reports, %d transport errors",
		r.Leases, r.Cells, r.Failed, r.Dropped, r.Rejected, r.Errors)
	if r.Outages > 0 {
		line += fmt.Sprintf(", %d outages survived", r.Outages)
	}
	return line
}

// Work runs the pull-based worker loop: lease a slice, run its cells
// through the Runner (each result publishing to the server via the
// Runner's RemoteStore), report each cell, repeat. Cells the queue
// reassigns to another worker (work stealing) arrive as drop lists on
// report acks and are skipped. The loop is crash-safe by construction:
// no state lives in the worker, so killing it anywhere loses nothing —
// its lease expires and the cells are re-leased. With cfg.Stop wired,
// the loop is also restart-safe: a sweepd outage is logged once and
// polled through rather than failing the worker, with or without a
// retry window.
func (c *QueueClient) Work(cfg WorkerConfig) WorkerReport {
	logf := func(format string, args ...any) {
		c.logf("worker %s: "+format, append([]any{cfg.ID}, args...)...)
	}
	stopped := func() bool {
		if cfg.Stop == nil {
			return false
		}
		select {
		case <-cfg.Stop:
			return true
		default:
			return false
		}
	}
	// The idle wait between empty lease responses is the server's
	// (sweepd -poll), or DefaultWorkerPoll until a response carries it.
	poll := func() time.Duration {
		if hint := c.pollHint(); hint > 0 {
			return hint
		}
		return DefaultWorkerPoll
	}
	var rep WorkerReport
	down := outage{logf: logf}
	// answered sorts one call's outcome: an answer, a transient failure
	// or a permanent one. A transient failure is an outage, not an
	// error: the control plane is away (restarting, most likely), and
	// the journaled queue comes back with our lease intact. A lost
	// report loses no result either: Runner.Run published it before the
	// report, so when the lease expires and the cell re-leases, the
	// store serves it and nothing is recomputed.
	answered := func(call string, err error) bool {
		if err != nil && !IsTransient(err) {
			rep.Errors++
			logf("%s: %v", call, err)
			return false
		}
		if down.observe(err) {
			rep.Outages++
		}
		return err == nil
	}
	idle := 0
	for {
		if stopped() {
			logf("stop requested; exiting")
			return rep
		}
		grant, err := c.Lease(cfg.ID)
		if !answered("lease", err) || grant == nil {
			idle++
			if cfg.IdleExit > 0 && idle >= cfg.IdleExit {
				return rep
			}
			time.Sleep(poll())
			continue
		}
		idle = 0
		rep.Leases++
		logf("lease %s: %d cells of job %s", grant.Lease, len(grant.Cells), grant.Job)
		dropped := make(map[string]bool)
		for _, e := range grant.Cells {
			if stopped() {
				logf("stop requested; abandoning the rest of lease %s", grant.Lease)
				return rep
			}
			fp := e.Fingerprint()
			if dropped[fp] {
				rep.Dropped++
				continue
			}
			res := cfg.Runner.Run(e)
			rep.Cells++
			failed := res.Err != ""
			if failed {
				rep.Failed++
				logf("cell %s failed: %s", fp, res.Err)
			}
			report := func() (ReportAck, error) {
				ack, err := c.Report(grant.Job, grant.Lease, cfg.ID, fp, failed, res.Err)
				for _, d := range ack.Drop {
					dropped[d] = true
				}
				return ack, err
			}
			ack, err := report()
			if err == nil && !failed && !ack.Verified && cfg.Runner.store != nil {
				// The server has no verified entry, most likely because
				// the push behind Runner.Run failed. The Runner serves
				// this cell from its memory from now on and would never
				// push it again, so publish it once more and report
				// again; the report tells whether the push landed.
				_ = cfg.Runner.store.Store(fp, res)
				ack, err = report()
			}
			if answered("report "+fp, err) && !failed && !ack.Verified {
				// The cell stays pending and will be re-leased.
				rep.Rejected++
				logf("report %s rejected: server has no verified entry", fp)
			}
		}
	}
}
