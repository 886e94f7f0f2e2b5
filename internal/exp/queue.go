package exp

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// JobQueue is the scheduling state machine behind cmd/sweepd: jobs are
// submitted sweep matrices, partitioned into shard slices by experiment
// fingerprint (the same Shard.owns grammar that powers `sweep -shard`),
// and leased slice-by-slice to pull-based workers. The queue never
// executes anything itself — workers compute cells through their own
// Runner and publish results into the server's DiskCache over the
// verified ingest path; a cell is marked done only when that store can
// serve a loadable entry for its fingerprint (the same decodeEntry
// trust gate every cache read passes), so a lying or stale worker's
// claim is rejected exactly like a corrupt cache file.
//
// The state machine is deterministic where it matters for the repo's
// contracts: cells keep submission order, the slice partition is a pure
// function of the fingerprints, a resubmitted matrix resolves entirely
// from the store at submission time (recomputing nothing), and a
// worker that dies mid-lease loses zero cells — its lease expires and
// the unfinished cells return to the queue for the next Lease call.
//
// Every operation splits into a decision and a transition. The decision
// consults the store and the clock and writes its outcome into a
// journalRecord; the transition is queueState.apply, the only code that
// changes the scheduling state. With a journal (see RecoverJobQueue) each
// record is also appended to the write-ahead log, and recovery replays
// the log through the same apply, so a queue killed at any instant
// rebuilds the same scheduling state on restart, apart from leases,
// which are re-armed for one TTL (and a drop list may be repeated).
//
// All methods are safe for concurrent use.
type JobQueue struct {
	mu    sync.Mutex
	store *DiskCache
	cfg   QueueConfig
	// now is the queue's clock; tests replace it to drive lease expiry.
	now func() time.Time

	state queueState

	// journal, when set, receives every record and the compaction
	// snapshots. nil means an in-memory-only queue.
	journal *queueJournal
	// draining refuses new leases (Lease returns ok == false) while
	// in-flight reports keep landing — the SIGTERM grace window.
	draining bool
}

// Default queue tuning: leases outlive any reasonable cell (renewal
// rides on every report), and a matrix splits into enough slices that a
// small fleet load-balances without stealing.
const (
	DefaultLeaseTTL  = 60 * time.Second
	DefaultJobSlices = 8
	// DefaultWorkerPoll is the idle-poll interval sweepd advertises to
	// workers, and the one a worker waits before a lease response has
	// carried the server's.
	DefaultWorkerPoll = 250 * time.Millisecond
	// stealMin is the smallest pending count a leased slice must hold
	// before an idle worker may steal its back half: the smallest slice
	// whose back half is non-empty (apply refuses an empty steal).
	stealMin = 2
	// maxJobCells bounds one submission, keeping a confused client from
	// growing server memory without limit.
	maxJobCells = 1 << 20
)

// QueueConfig is the queue tuning, settable per sweepd process (PR 8
// hardcoded these at package level). The zero value means defaults.
type QueueConfig struct {
	// TTL is the lease lifetime; reports renew it.
	TTL time.Duration
	// Slices is the default partition width for submissions that do not
	// choose their own.
	Slices int
	// Poll is the idle-poll interval advertised to workers.
	Poll time.Duration
}

func (c QueueConfig) withDefaults() QueueConfig {
	if c.TTL <= 0 {
		c.TTL = DefaultLeaseTTL
	}
	if c.Slices <= 0 {
		c.Slices = DefaultJobSlices
	}
	if c.Poll <= 0 {
		c.Poll = DefaultWorkerPoll
	}
	return c
}

// QueueConfigStatus is the tuning block served in /statusz.
type QueueConfigStatus struct {
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	Slices     int   `json:"slices"`
	PollMS     int64 `json:"poll_ms"`
	Draining   bool  `json:"draining,omitempty"`
}

type cellState int

const (
	cellQueued cellState = iota
	cellLeased
	cellDone
	cellFailed
)

// queueState is everything the queue schedules by. A journal snapshot
// is this value's own JSON, so the types below carry JSON tags.
type queueState struct {
	Seq  int         `json:"seq"`  // the last issued job or lease number
	Jobs []*queueJob `json:"jobs"` // submission order
}

type queueCell struct {
	Exp   Experiment `json:"exp"`
	State cellState  `json:"state"`
	// Cached marks a done cell resolved from the store at submission
	// (as opposed to computed through a verified worker report).
	Cached bool   `json:"cached,omitempty"`
	Err    string `json:"err,omitempty"` // failure report, when State == cellFailed
}

// queueSlice is the lease unit: one shard's pending fingerprints, in
// submission order. Stolen slices are appended with the Shard of their
// donor (provenance only; ownership is the pending list). Slices are
// never removed from a job, so journal records name them by index.
type queueSlice struct {
	Shard   Shard       `json:"shard"`
	Pending []string    `json:"pending"` // fingerprints not yet done/failed
	Lease   *queueLease `json:"lease,omitempty"`
}

type queueLease struct {
	ID       string `json:"id"`
	Worker   string `json:"worker"`
	Deadline int64  `json:"deadline"` // unixnano
	// Stolen accumulates fingerprints moved to another worker since this
	// lease's last report; the next report returns them as a drop list
	// so the donor stops computing work it no longer owns.
	Stolen []string `json:"stolen,omitempty"`
}

type queueWorker struct {
	LastSeen int64 `json:"last_seen"` // unixnano
	Leased   int   `json:"leased"`    // cells currently under this worker's leases
	Done     int   `json:"done"`      // verified completions reported by this worker
}

type queueJob struct {
	ID       string                  `json:"id"`
	CellIDs  []string                `json:"cell_ids"` // fingerprints in submission order
	Cells    map[string]*queueCell   `json:"cells"`
	Slices   []*queueSlice           `json:"slices"`
	Workers  map[string]*queueWorker `json:"workers"`
	Cached   int                     `json:"cached"`   // done at submission, served by the store
	Computed int                     `json:"computed"` // done via verified worker reports
	Failed   int                     `json:"failed"`
}

func jobID(seq int) string   { return fmt.Sprintf("j%04d", seq) }
func leaseID(seq int) string { return fmt.Sprintf("l%04d", seq) }

// job returns the job with the given ID, or nil.
func (s *queueState) job(id string) *queueJob {
	for _, j := range s.Jobs {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// worker returns the named worker of j, created if new, seen at t.
func (j *queueJob) worker(name string, t int64) *queueWorker {
	w := j.Workers[name]
	if w == nil {
		w = &queueWorker{}
		j.Workers[name] = w
	}
	w.LastSeen = t
	return w
}

// NewJobQueue creates an in-memory queue over the given result store.
// Zero fields of cfg take the package defaults. For a crash-safe queue
// use RecoverJobQueue, which attaches a journal.
func NewJobQueue(store *DiskCache, cfg QueueConfig) *JobQueue {
	return &JobQueue{
		store: store,
		cfg:   cfg.withDefaults(),
		now:   time.Now,
	}
}

// Config returns the queue tuning in /statusz form.
func (q *JobQueue) Config() QueueConfigStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueConfigStatus{
		LeaseTTLMS: q.cfg.TTL.Milliseconds(),
		Slices:     q.cfg.Slices,
		PollMS:     q.cfg.Poll.Milliseconds(),
		Draining:   q.draining,
	}
}

// PollHint is the idle-poll interval the server advertises to workers.
func (q *JobQueue) PollHint() time.Duration { return q.cfg.Poll }

// JournalStats snapshots the attached journal's accounting; nil when
// the queue runs without one.
func (q *JobQueue) JournalStats() *JournalStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.journal == nil {
		return nil
	}
	st := q.journal.stats
	return &st
}

// SetDraining toggles drain mode: a draining queue grants no new leases
// (workers' Lease calls return "nothing available") while reports from
// in-flight leases keep landing. cmd/sweepd drains on SIGTERM so the
// fleet's current cells finish before the process exits.
func (q *JobQueue) SetDraining(v bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.draining = v
}

// ActiveLeases counts unexpired leases across all jobs — the drain
// loop's exit condition.
func (q *JobQueue) ActiveLeases() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	n := 0
	for _, j := range q.state.Jobs {
		for _, sl := range j.Slices {
			if sl.Lease != nil {
				n++
			}
		}
	}
	return n
}

// Checkpoint compacts the journal: the log is rewritten as one snapshot
// of the current state. A no-op without a journal. Called by the drain
// path so a clean shutdown restarts from one snapshot read.
func (q *JobQueue) Checkpoint() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.journal == nil {
		return nil
	}
	return q.journal.compact(&q.state)
}

// Close detaches and closes the journal, if any.
func (q *JobQueue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.journal
	q.journal = nil
	if j == nil || j.wal == nil {
		return nil
	}
	return j.wal.Close()
}

// commit makes one transition: apply the record, then journal it (a
// no-op for journal-less queues), compacting when the journal asks.
// Called with q.mu held, so a compaction snapshot includes the record.
func (q *JobQueue) commit(rec journalRecord) {
	rec.V = journalSchemaVersion
	rec.T = q.now().UnixNano()
	if !q.state.apply(rec) {
		panic(fmt.Sprintf("exp: queue refused its own %s record for job %s", rec.Kind, rec.Job))
	}
	if q.journal != nil && q.journal.append(rec) {
		// Best-effort: a failed compaction leaves the log as it is and
		// the next append asks again. Append errors are counted in the
		// journal stats either way.
		_ = q.journal.compact(&q.state)
	}
}

// apply changes the state by one journal record. It is the only code
// that changes journaled queue state: live operations commit their
// records through it, and recovery replays the log through it. apply
// reads neither the store nor the clock; what the decisions learned
// travels in the record, and rec.T stands for the time of the
// transition. A record that does not fit the state — an unknown job, a
// slice out of range, a lease mismatch, a settled cell, a number that is
// not the next one issued — is refused with nothing changed.
//
//	snapshot  State replaces the whole state, once it passes valid
//	submit    adds job Job (number Seq), resolving the Cached cells done
//	          and partitioning the rest into Slices shard slices
//	lease     leases slice Slice, whose pending cells must be FPs; with
//	          From set it is a steal: FPs is the tail of donor lease
//	          From's slice Slice, moved into a new slice that is leased
//	report    settles cell FP (failed, or verified done by Worker)
//	expire    returns the cells FPs of lease Lease on slice Slice to
//	          the queue
func (s *queueState) apply(rec journalRecord) bool {
	switch rec.Kind {
	case "snapshot":
		if rec.State == nil || !rec.State.valid() {
			return false
		}
		*s = *rec.State
	case "submit":
		if rec.Seq != s.Seq+1 || rec.Job != jobID(rec.Seq) || rec.Slices < 1 {
			return false
		}
		j := &queueJob{
			ID:      rec.Job,
			CellIDs: make([]string, 0, len(rec.Cells)),
			Cells:   make(map[string]*queueCell, len(rec.Cells)),
			Workers: make(map[string]*queueWorker),
		}
		cached := make(map[string]bool, len(rec.Cached))
		for _, fp := range rec.Cached {
			cached[fp] = true
		}
		var queued []string
		for _, e := range rec.Cells {
			fp := e.Fingerprint()
			if j.Cells[fp] != nil {
				return false
			}
			c := &queueCell{Exp: e}
			if cached[fp] {
				c.State, c.Cached = cellDone, true
				j.Cached++
			} else {
				queued = append(queued, fp)
			}
			j.Cells[fp] = c
			j.CellIDs = append(j.CellIDs, fp)
		}
		j.Slices = partition(queued, rec.Slices)
		s.Jobs = append(s.Jobs, j)
		s.Seq = rec.Seq
	case "lease":
		j := s.job(rec.Job)
		if j == nil || rec.Seq != s.Seq+1 || rec.Lease != leaseID(rec.Seq) || rec.Slice < 0 || rec.Slice >= len(j.Slices) {
			return false
		}
		sl := j.Slices[rec.Slice]
		if rec.From != "" {
			n, k := len(sl.Pending), len(rec.FPs)
			if sl.Lease == nil || sl.Lease.ID != rec.From || k == 0 || k >= n || !slices.Equal(sl.Pending[n-k:], rec.FPs) {
				return false
			}
			sl.Pending = sl.Pending[:n-k]
			sl.Lease.Stolen = append(sl.Lease.Stolen, rec.FPs...)
			j.Workers[sl.Lease.Worker].Leased -= k
			sl = &queueSlice{Shard: sl.Shard, Pending: slices.Clone(rec.FPs)}
			j.Slices = append(j.Slices, sl)
		} else if sl.Lease != nil || len(sl.Pending) == 0 || !slices.Equal(sl.Pending, rec.FPs) {
			return false
		}
		sl.Lease = &queueLease{ID: rec.Lease, Worker: rec.Worker, Deadline: rec.Deadline}
		j.worker(rec.Worker, rec.T).Leased += len(sl.Pending)
		for _, fp := range sl.Pending {
			j.Cells[fp].State = cellLeased
		}
		s.Seq = rec.Seq
	case "report":
		j := s.job(rec.Job)
		if j == nil {
			return false
		}
		c := j.Cells[rec.FP]
		if c == nil || c.State == cellDone || c.State == cellFailed {
			return false
		}
		w := j.worker(rec.Worker, rec.T)
		if rec.Failed {
			c.State, c.Err = cellFailed, rec.Err
			j.Failed++
		} else {
			c.State = cellDone
			j.Computed++
			w.Done++
		}
		j.settle(rec.FP)
	case "expire":
		j := s.job(rec.Job)
		if j == nil || rec.Slice < 0 || rec.Slice >= len(j.Slices) {
			return false
		}
		sl := j.Slices[rec.Slice]
		if sl.Lease == nil || sl.Lease.ID != rec.Lease || !slices.Equal(sl.Pending, rec.FPs) {
			return false
		}
		j.Workers[sl.Lease.Worker].Leased -= len(sl.Pending)
		for _, fp := range sl.Pending {
			j.Cells[fp].State = cellQueued
		}
		sl.Lease = nil
	default:
		return false
	}
	return true
}

// partition splits pending fingerprints into the slices of an n-way
// shard partition, in shard order; shards that own no cell get none.
// It costs one pass over the cells whatever n is, so a huge slice count
// from a client or a damaged record cannot stall the queue.
func partition(fps []string, n int) []*queueSlice {
	var out []*queueSlice
	byShard := make(map[int]*queueSlice)
	for _, fp := range fps {
		i := shardOf(fp, n)
		sl := byShard[i]
		if sl == nil {
			sl = &queueSlice{Shard: Shard{Index: i, Count: n}}
			byShard[i] = sl
			out = append(out, sl)
		}
		sl.Pending = append(sl.Pending, fp)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Shard.Index < out[b].Shard.Index })
	return out
}

// settle removes a settled fingerprint from whichever slice still
// carries it and releases a drained lease.
func (j *queueJob) settle(fp string) {
	for _, sl := range j.Slices {
		i := slices.Index(sl.Pending, fp)
		if i < 0 {
			continue
		}
		sl.Pending = slices.Delete(sl.Pending, i, i+1)
		if sl.Lease != nil {
			j.Workers[sl.Lease.Worker].Leased--
			if len(sl.Pending) == 0 {
				sl.Lease = nil
			}
		}
		return
	}
}

// WorkerStatus is one worker's liveness line in a job status.
type WorkerStatus struct {
	ID string `json:"id"`
	// LastSeenMS is how long ago the worker last leased or reported,
	// in milliseconds (an age, so no absolute clocks cross the wire).
	LastSeenMS int64 `json:"last_seen_ms"`
	// Live reports a worker seen within one lease TTL.
	Live   bool `json:"live"`
	Leased int  `json:"leased"`
	Done   int  `json:"done"`
}

// CellFailure names one failed cell of a job.
type CellFailure struct {
	Fingerprint string `json:"fingerprint"`
	Name        string `json:"name"`
	Err         string `json:"err"`
}

// JobStatus is the progress snapshot served at /v1/jobs/<id>.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // running, done, failed
	Total int    `json:"total"`

	Queued int `json:"queued"`
	Leased int `json:"leased"`
	Done   int `json:"done"`
	Failed int `json:"failed"`

	// Cached cells were resolved from the result store at submission;
	// Computed cells became done through verified worker reports.
	// Cached + Computed == Done.
	Cached   int `json:"cached"`
	Computed int `json:"computed"`

	Workers  []WorkerStatus `json:"workers,omitempty"`
	Failures []CellFailure  `json:"failures,omitempty"`
}

// Finished reports a job with no outstanding cells.
func (s JobStatus) Finished() bool { return s.State != "running" }

// LeaseGrant hands one slice's pending cells to a worker. The worker
// owns them until Deadline passes without a report; results publish
// through the store and each cell is closed out by a Report call.
type LeaseGrant struct {
	Job   string `json:"job"`
	Lease string `json:"lease"`
	TTLMS int64  `json:"ttl_ms"`
	// Cells lists the leased experiments in submission order.
	Cells []Experiment `json:"cells"`
}

// ReportAck answers one cell report.
type ReportAck struct {
	// Verified is true when a done report was accepted: the server's
	// store served a loadable entry for the fingerprint. A false ack
	// means the claim was rejected — the cell stays pending and the
	// worker should push the result before reporting again.
	Verified bool `json:"verified"`
	// Drop lists fingerprints stolen from this lease since its last
	// report; the worker must stop computing them.
	Drop []string `json:"drop,omitempty"`
	// JobState echoes the job's state after the report.
	JobState string `json:"job_state"`
}

// Submit registers a sweep matrix as a job. Cells already served by the
// result store resolve to done immediately — resubmitting a completed
// sweep yields a job that is done on arrival with Computed == 0. A
// submission whose cell set matches a still-running job returns that
// job instead of queueing duplicate work (workers publish to one
// content-addressed store, so the first job's results serve both
// callers). Duplicate fingerprints within one submission collapse to
// the first occurrence.
func (q *JobQueue) Submit(cells []Experiment, slices int) (JobStatus, error) {
	if len(cells) == 0 {
		return JobStatus{}, fmt.Errorf("exp: empty job submission")
	}
	if len(cells) > maxJobCells {
		return JobStatus{}, fmt.Errorf("exp: job of %d cells exceeds the %d-cell limit", len(cells), maxJobCells)
	}

	fps := make([]string, 0, len(cells))
	byFP := make(map[string]Experiment, len(cells))
	for _, e := range cells {
		fp := e.Fingerprint()
		if _, dup := byFP[fp]; dup {
			continue
		}
		byFP[fp] = e
		fps = append(fps, fp)
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if slices <= 0 {
		slices = q.cfg.Slices
	}
	q.expireLocked()
	if j := q.findActiveLocked(fps); j != nil {
		return q.statusLocked(j), nil
	}

	ordered := make([]Experiment, 0, len(fps))
	var cached []string
	for _, fp := range fps {
		ordered = append(ordered, byFP[fp])
		// The trust gate decides "already done": only a loadable,
		// verified entry spares the cell, never mere file presence.
		if _, ok := q.store.Load(fp); ok {
			cached = append(cached, fp)
		}
	}
	seq := q.state.Seq + 1
	q.commit(journalRecord{Kind: "submit", Job: jobID(seq), Seq: seq, Slices: slices, Cells: ordered, Cached: cached})
	return q.statusLocked(q.state.Jobs[len(q.state.Jobs)-1]), nil
}

// findActiveLocked returns a running job whose cell set is exactly fps.
func (q *JobQueue) findActiveLocked(fps []string) *queueJob {
	want := append([]string(nil), fps...)
	sort.Strings(want)
	for _, j := range q.state.Jobs {
		if j.state() != "running" || len(j.CellIDs) != len(want) {
			continue
		}
		have := append([]string(nil), j.CellIDs...)
		sort.Strings(have)
		if slices.Equal(have, want) {
			return j
		}
	}
	return nil
}

// Lease grants the named worker one slice of pending work, scanning
// jobs in submission order. When every slice of every running job is
// already leased and alive, the largest in-flight slice with at least
// stealMin pending cells is split and its back half re-leased to the
// caller (work stealing for stragglers; the donor learns of the theft
// as a drop list on its next report). ok == false means there is
// nothing to hand out right now — the worker should poll again. A
// draining queue hands out nothing.
func (q *JobQueue) Lease(worker string) (LeaseGrant, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	if q.draining {
		return LeaseGrant{}, false
	}
	for _, j := range q.state.Jobs {
		// Unleased (or expired, cleaned by expireLocked) slice first.
		for i, sl := range j.Slices {
			if sl.Lease == nil && len(sl.Pending) > 0 {
				return q.grantLocked(j, worker, journalRecord{Slice: i, FPs: sl.Pending}), true
			}
		}
	}
	// Nothing free: steal from the biggest straggler slice.
	for _, j := range q.state.Jobs {
		donor := -1
		for i, sl := range j.Slices {
			if sl.Lease == nil || sl.Lease.Worker == worker || len(sl.Pending) < stealMin {
				continue
			}
			if donor < 0 || len(sl.Pending) > len(j.Slices[donor].Pending) {
				donor = i
			}
		}
		if donor < 0 {
			continue
		}
		d := j.Slices[donor]
		tail := d.Pending[len(d.Pending)-len(d.Pending)/2:]
		return q.grantLocked(j, worker, journalRecord{Slice: donor, From: d.Lease.ID, FPs: tail}), true
	}
	return LeaseGrant{}, false
}

// grantLocked commits a lease of rec.FPs (from slice rec.Slice, or
// stolen from lease rec.From) to worker under the next lease number.
func (q *JobQueue) grantLocked(j *queueJob, worker string, rec journalRecord) LeaseGrant {
	rec.Kind, rec.Job, rec.Worker = "lease", j.ID, worker
	rec.Seq = q.state.Seq + 1
	rec.Lease = leaseID(rec.Seq)
	rec.Deadline = q.now().Add(q.cfg.TTL).UnixNano()
	q.commit(rec)
	grant := LeaseGrant{
		Job:   j.ID,
		Lease: rec.Lease,
		TTLMS: q.cfg.TTL.Milliseconds(),
		Cells: make([]Experiment, 0, len(rec.FPs)),
	}
	for _, fp := range rec.FPs {
		grant.Cells = append(grant.Cells, j.Cells[fp].Exp)
	}
	return grant
}

// Report closes out one cell of a lease. A done claim is verified
// against the result store — no loadable entry, no progress — while a
// failure report records the worker's error and terminates the cell.
// Reports renew the lease deadline (they are the worker's heartbeat)
// and return any fingerprints stolen from the lease since the last
// report. Reports for cells that are already settled, or from leases
// that have expired, are acknowledged idempotently: verified progress
// is never discarded, whoever delivers it.
func (q *JobQueue) Report(jobID, leaseID, worker, fp string, failed bool, errMsg string) (ReportAck, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	now := q.now()

	j := q.state.job(jobID)
	if j == nil {
		return ReportAck{}, fmt.Errorf("exp: unknown job %q", jobID)
	}
	c := j.Cells[fp]
	if c == nil {
		return ReportAck{}, fmt.Errorf("exp: job %s has no cell %s", jobID, fp)
	}
	// Liveness, lease renewal and the drop-list hand-off are not
	// journaled: recovery re-arms every lease and may repeat a drop list.
	j.worker(worker, now.UnixNano())

	// Find the lease (it may have expired or been superseded; the report
	// is still processed, just without a deadline to renew).
	ack := ReportAck{Verified: true}
	for _, sl := range j.Slices {
		if sl.Lease != nil && sl.Lease.ID == leaseID {
			sl.Lease.Deadline = now.Add(q.cfg.TTL).UnixNano()
			ack.Drop = sl.Lease.Stolen
			sl.Lease.Stolen = nil
			break
		}
	}

	// Only state changes reach the journal: idempotent acks and
	// unverified claims leave nothing to recover.
	if c.State == cellDone || c.State == cellFailed {
		ack.JobState = j.state()
		return ack, nil // already settled; idempotent ack
	}
	if !failed {
		if _, ok := q.store.Load(fp); !ok {
			// The trust boundary: the worker claims done but the store
			// cannot serve a verified entry. Rejected — the cell stays
			// pending and will be re-leased if this worker gives up.
			ack.Verified = false
			ack.JobState = j.state()
			return ack, nil
		}
	}
	q.commit(journalRecord{Kind: "report", Job: jobID, Lease: leaseID, Worker: worker, FP: fp, Failed: failed, Err: errMsg})
	ack.JobState = j.state()
	return ack, nil
}

// expireLocked returns the cells of overdue leases to the queue. Called
// at the top of every public operation, so expiry needs no timer: dead
// workers are discovered the next time anyone talks to the queue.
func (q *JobQueue) expireLocked() {
	now := q.now().UnixNano()
	for _, j := range q.state.Jobs {
		for i, sl := range j.Slices {
			if sl.Lease != nil && now > sl.Lease.Deadline {
				q.commit(journalRecord{Kind: "expire", Job: j.ID, Lease: sl.Lease.ID, Slice: i, FPs: sl.Pending})
			}
		}
	}
}

func (j *queueJob) state() string {
	if j.Cached+j.Computed+j.Failed < len(j.CellIDs) {
		return "running"
	}
	if j.Failed > 0 {
		return "failed"
	}
	return "done"
}

func (q *JobQueue) statusLocked(j *queueJob) JobStatus {
	now := q.now().UnixNano()
	st := JobStatus{
		ID:       j.ID,
		State:    j.state(),
		Total:    len(j.CellIDs),
		Done:     j.Cached + j.Computed,
		Failed:   j.Failed,
		Cached:   j.Cached,
		Computed: j.Computed,
	}
	for _, fp := range j.CellIDs {
		switch c := j.Cells[fp]; c.State {
		case cellQueued:
			st.Queued++
		case cellLeased:
			st.Leased++
		case cellFailed:
			st.Failures = append(st.Failures, CellFailure{
				Fingerprint: fp,
				Name:        c.Exp.Name(),
				Err:         c.Err,
			})
		}
	}
	names := make([]string, 0, len(j.Workers))
	for name := range j.Workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := j.Workers[name]
		age := time.Duration(now - w.LastSeen)
		st.Workers = append(st.Workers, WorkerStatus{
			ID:         name,
			LastSeenMS: age.Milliseconds(),
			Live:       age <= q.cfg.TTL,
			Leased:     w.Leased,
			Done:       w.Done,
		})
	}
	return st
}

// Status snapshots one job.
func (q *JobQueue) Status(jobID string) (JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	j := q.state.job(jobID)
	if j == nil {
		return JobStatus{}, false
	}
	return q.statusLocked(j), true
}

// Jobs snapshots every job in submission order.
func (q *JobQueue) Jobs() []JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	out := make([]JobStatus, 0, len(q.state.Jobs))
	for _, j := range q.state.Jobs {
		out = append(out, q.statusLocked(j))
	}
	return out
}
