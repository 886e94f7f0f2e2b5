package exp

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// queueJournal makes the sweepd control plane crash-safe: every queue
// transition (job submit with its cells, lease grant — steals included —
// per-cell done/failed report, lease expiry) appends its record to a
// write-ahead log, and the full queue state periodically compacts into a
// snapshot so the log never grows without bound. A restarted sweepd
// rebuilds its JobQueue by replaying the log through the same
// queueState.apply the live queue uses (see RecoverJobQueue), so a
// kill -9 of the control plane loses no submitted job: in-flight work
// resumes where the journal left it, and the result store remains the
// only authority on which cells are actually done.
//
// # On-disk format
//
// The journal directory holds one file, queue.wal: a stream of framed
// records whose first record may be a snapshot of the whole queue state.
// Every framed record is
//
//	[4-byte little-endian payload length][4-byte IEEE CRC32 of payload][payload JSON]
//
// and every payload carries the journal schema version. Replay stops —
// without panicking — at the first defect: a torn tail from a crashed
// append (header or payload cut short), a checksum mismatch, unparsable
// JSON, a foreign schema version, or a record apply refuses. The valid
// prefix is kept; the tail is discarded at the next compaction. A
// defective snapshot is just a defective first record: the queue starts
// empty, and the store still serves every verified result, so a
// resubmission recomputes nothing.
//
// Compaction writes the snapshot to a temp file, syncs it, renames it
// over queue.wal and appends to the new file from then on, so each
// record is replayed once, onto the state it was made from. A failed
// append (a full or broken disk) may leave a torn frame in the log; it
// is counted and asks for a compaction, which rewrites the log from
// memory. The store remains the source of truth for results, so a lost
// journal costs recovery convenience, never correctness.
//
// A journal is owned by one process at a time (sweepd's) and used under
// the queue's lock; there is no cross-process locking.
type queueJournal struct {
	dir string
	// maxBytes triggers a compaction request from append once the log
	// outgrows it.
	maxBytes int64

	wal *os.File
	// broken records a failed append since the last compaction: the log
	// may end in a torn frame that would hide every later record.
	broken bool
	stats  JournalStats
}

// journalSchemaVersion is the record-format generation; bump it when a
// change makes old records untrustworthy. Foreign generations are
// dropped cleanly at recovery, never misread. Generation 2 is the
// one-file log with the snapshot as its first record.
const journalSchemaVersion = 2

// journalMaxBytes is the compaction threshold: with records a few
// hundred bytes each (submits excepted) this is tens of thousands of
// transitions between snapshots.
const journalMaxBytes = 4 << 20

// maxJournalRecordBytes bounds one framed payload; a length header
// beyond it is treated as corruption, not an allocation request.
const maxJournalRecordBytes = maxJobBytes

const walName = "queue.wal"

// JournalStats is the journal's /statusz accounting.
type JournalStats struct {
	// Appended counts records written since the journal was opened.
	Appended int64 `json:"appended"`
	// AppendErrors counts failed writes (the transition proceeded; only
	// its durability was lost until the compaction that follows).
	AppendErrors int64 `json:"append_errors,omitempty"`
	// Replayed counts log records applied during recovery, the snapshot
	// aside.
	Replayed int64 `json:"replayed"`
	// TailTruncations counts recoveries that found and discarded a torn,
	// corrupt, foreign or refused record and everything after it.
	TailTruncations int64 `json:"tail_truncations"`
	// Compactions counts log rewrites since open.
	Compactions int64 `json:"compactions"`
	// LastCompaction is the wall-clock time of the newest compaction.
	LastCompaction string `json:"last_compaction,omitempty"`
	// WALBytes counts bytes logged since the snapshot.
	WALBytes int64 `json:"wal_bytes"`
	// SnapshotBytes is the size of the newest snapshot record.
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`
}

// journalRecord is one log payload. Kind selects which fields are
// meaningful (see queueState.apply for what each kind does):
//
//	snapshot  State
//	submit    Job, Seq, T, Slices, Cells (deduped, submission order),
//	          Cached (fingerprints resolved done from the store at submit)
//	lease     Job, Lease, Seq, T, Worker, Slice, Deadline, FPs (granted
//	          cells); From names the donor lease when the grant was a steal
//	report    Job, Lease, T, Worker, FP, Failed, Err — appended only for
//	          reports that changed state (verified done, or failure)
//	expire    Job, Lease, Slice, T, FPs (pending cells returned to the queue)
type journalRecord struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	T    int64  `json:"t,omitempty"` // queue-clock unixnano of the transition

	Job    string `json:"job,omitempty"`
	Lease  string `json:"lease,omitempty"`
	Seq    int    `json:"seq,omitempty"` // the number the record issues
	Worker string `json:"worker,omitempty"`

	Slices int          `json:"slices,omitempty"`
	Cells  []Experiment `json:"cells,omitempty"`
	Cached []string     `json:"cached,omitempty"`

	Slice    int      `json:"slice,omitempty"` // index into the job's slices
	FPs      []string `json:"fps,omitempty"`
	From     string   `json:"from,omitempty"`
	Deadline int64    `json:"deadline,omitempty"` // lease deadline, unixnano

	FP     string `json:"fp,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"err,omitempty"`

	State *queueState `json:"state,omitempty"`
}

// frame wraps one payload in the length+CRC header.
func frame(payload []byte) []byte {
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	return buf
}

// readFrames walks a framed byte stream, returning every intact payload
// and whether a torn or corrupt tail was discarded. It never panics and
// never returns a payload whose checksum does not verify.
func readFrames(blob []byte) (payloads [][]byte, truncated bool) {
	for off := 0; off < len(blob); {
		if len(blob)-off < 8 {
			return payloads, true // torn header
		}
		n := int(binary.LittleEndian.Uint32(blob[off : off+4]))
		sum := binary.LittleEndian.Uint32(blob[off+4 : off+8])
		if n <= 0 || n > maxJournalRecordBytes || len(blob)-off-8 < n {
			return payloads, true // corrupt length or torn payload
		}
		payload := blob[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return payloads, true // checksum mismatch
		}
		payloads = append(payloads, payload)
		off += 8 + n
	}
	return payloads, false
}

// append journals one record: marshal, frame, write, sync. It reports
// whether the log needs a compaction: it has outgrown maxBytes, or an
// append failed since the last compaction.
func (j *queueJournal) append(rec journalRecord) bool {
	payload, err := json.Marshal(rec)
	var buf []byte
	if err == nil {
		buf = frame(payload)
		if _, err = j.wal.Write(buf); err == nil {
			err = j.wal.Sync()
		}
	}
	if err != nil {
		j.stats.AppendErrors++
		j.broken = true
		return true
	}
	j.stats.WALBytes += int64(len(buf))
	j.stats.Appended++
	return j.broken || j.stats.WALBytes > j.maxBytes
}

// replay applies the log to s: the intact record prefix, up to the first
// record that does not decode or that apply refuses. It returns the
// number of records applied, the snapshot aside, and whether a tail was
// discarded.
func (j *queueJournal) replay(s *queueState) (records int, torn bool) {
	blob, err := os.ReadFile(filepath.Join(j.dir, walName))
	if err != nil {
		return 0, false // a fresh journal
	}
	payloads, torn := readFrames(blob)
	for _, p := range payloads {
		var rec journalRecord
		if json.Unmarshal(p, &rec) != nil || rec.V != journalSchemaVersion || !s.apply(rec) {
			torn = true
			break
		}
		if rec.Kind != "snapshot" {
			records++
		}
	}
	if torn {
		j.stats.TailTruncations++
	}
	j.stats.Replayed += int64(records)
	return records, torn
}

// compact rewrites the log as one snapshot record of s: temp file, sync,
// rename over queue.wal, then append to the new file. A crash anywhere
// before the rename leaves the old log, after it the new one.
func (j *queueJournal) compact(s *queueState) error {
	payload, err := json.Marshal(journalRecord{V: journalSchemaVersion, Kind: "snapshot", State: s})
	if err != nil {
		return fmt.Errorf("exp: marshal journal snapshot: %w", err)
	}
	buf := frame(payload)
	tmp, err := os.CreateTemp(j.dir, walName+".tmp-*")
	if err != nil {
		return fmt.Errorf("exp: journal snapshot temp file: %w", err)
	}
	if _, err := tmp.Write(buf); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: write journal snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: close journal snapshot: %w", err)
	}
	path := filepath.Join(j.dir, walName)
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("exp: commit journal snapshot: %w", err)
	}
	wal, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if j.wal != nil {
		j.wal.Close() // the replaced log; nothing more is written to it
	}
	j.wal, j.stats.WALBytes, j.broken = wal, 0, err != nil
	if err != nil {
		return fmt.Errorf("exp: reopen journal log: %w", err)
	}
	j.stats.Compactions++
	j.stats.LastCompaction = time.Now().UTC().Format(time.RFC3339)
	j.stats.SnapshotBytes = int64(len(buf))
	return nil
}

// valid reports whether a decoded snapshot is a state the queue could
// have built, so every later apply and operation finds what it expects:
// no nil entries; every cell ID, pending fingerprint and lease worker
// resolves; each unsettled cell sits in exactly one slice, in the state
// its slice's lease implies; counters and leased counts match the cells
// and slices; and job and lease IDs are unique and no higher than Seq.
func (s *queueState) valid() bool {
	issued := func(id, prefix string, spell func(int) string) bool {
		num, ok := strings.CutPrefix(id, prefix)
		n, err := strconv.Atoi(num)
		return ok && err == nil && n >= 1 && n <= s.Seq && spell(n) == id
	}
	ids := make(map[string]bool)
	for _, j := range s.Jobs {
		if j == nil || j.Cells == nil || j.Workers == nil || len(j.Cells) != len(j.CellIDs) ||
			!issued(j.ID, "j", jobID) || ids[j.ID] {
			return false
		}
		ids[j.ID] = true
		var cached, computed, failed, open int
		for _, fp := range j.CellIDs {
			c := j.Cells[fp]
			switch {
			case c == nil:
				return false
			case c.State == cellQueued || c.State == cellLeased:
				open++
			case c.State == cellDone && c.Cached:
				cached++
			case c.State == cellDone:
				computed++
			case c.State == cellFailed:
				failed++
			default:
				return false
			}
		}
		if cached != j.Cached || computed != j.Computed || failed != j.Failed {
			return false
		}
		leased := make(map[string]int)
		inSlice := make(map[string]bool)
		for _, sl := range j.Slices {
			if sl == nil {
				return false
			}
			want := cellQueued
			if l := sl.Lease; l != nil {
				if j.Workers[l.Worker] == nil || len(sl.Pending) == 0 || !issued(l.ID, "l", leaseID) || ids[l.ID] {
					return false
				}
				ids[l.ID] = true
				leased[l.Worker] += len(sl.Pending)
				want = cellLeased
			}
			for _, fp := range sl.Pending {
				if c := j.Cells[fp]; c == nil || c.State != want || inSlice[fp] {
					return false
				}
				inSlice[fp] = true
			}
		}
		if len(inSlice) != open {
			return false
		}
		for name, w := range j.Workers {
			if w == nil || w.Leased != leased[name] {
				return false
			}
		}
	}
	return true
}

// RecoveryReport summarizes one RecoverJobQueue pass.
type RecoveryReport struct {
	// Jobs counts jobs restored; Running counts those still unfinished —
	// the ones the fleet resumes.
	Jobs    int
	Running int
	// Records counts log records applied on top of the snapshot.
	Records int
	// Requeued counts done cells the result store could no longer
	// verify; they returned to pending and will be re-leased.
	Requeued int
	// TailTruncated reports that a torn or corrupt log tail (the
	// signature of a mid-append crash) was discarded.
	TailTruncated bool
}

// String is the one-line banner cmd/sweepd prints after recovery.
func (r RecoveryReport) String() string {
	line := fmt.Sprintf("recovered %d jobs (%d running) from %d journal records", r.Jobs, r.Running, r.Records)
	if r.Requeued > 0 {
		line += fmt.Sprintf(", %d unverified done cells re-queued", r.Requeued)
	}
	if r.TailTruncated {
		line += ", torn log tail truncated"
	}
	return line
}

// RecoverJobQueue builds a crash-safe queue: replay the journal
// directory's log (tolerating a torn tail), re-verify every done cell of
// every running job against the result store through the standard trust
// gate (a "done" that no longer loads returns to pending), re-arm
// surviving leases for one fresh TTL (the restart acts as a heartbeat,
// so in-flight workers keep their slices), compact the journal, and
// return the queue with the journal attached so every subsequent
// transition is logged.
func RecoverJobQueue(store *DiskCache, cfg QueueConfig, dir string) (*JobQueue, RecoveryReport, error) {
	if dir == "" {
		return nil, RecoveryReport{}, fmt.Errorf("exp: empty journal directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryReport{}, fmt.Errorf("exp: journal dir: %w", err)
	}
	journal := &queueJournal{dir: dir, maxBytes: journalMaxBytes}
	q := NewJobQueue(store, cfg)
	var rep RecoveryReport
	rep.Records, rep.TailTruncated = journal.replay(&q.state)
	rep.Requeued = q.reverifyDone()
	deadline := q.now().Add(q.cfg.TTL).UnixNano()
	for _, j := range q.state.Jobs {
		for _, sl := range j.Slices {
			if sl.Lease != nil {
				sl.Lease.Deadline = deadline
			}
		}
		if j.state() == "running" {
			rep.Running++
		}
	}
	rep.Jobs = len(q.state.Jobs)
	// Compact immediately: the restored state becomes the new snapshot
	// and the replayed log (torn tail included) is discarded.
	if err := journal.compact(&q.state); err != nil {
		return nil, rep, err // a failed compaction leaves no log open
	}
	q.journal = journal
	return q, rep, nil
}

// reverifyDone re-checks every done cell of every running job against
// the result store through the decodeEntry trust gate — the journal
// records claims, the store holds truth. Cells whose entry no longer
// loads (evicted, corrupted, or never durably written) return to
// pending in one new slice, first in line for a lease; reports settle
// cells out of their slices, so no other slice holds them. Finished
// jobs are left alone: reopening them would burn fleet compute on
// results nobody is waiting for.
func (q *JobQueue) reverifyDone() int {
	requeued := 0
	for _, j := range q.state.Jobs {
		if j.state() != "running" {
			continue
		}
		var rescinded []string
		for _, fp := range j.CellIDs {
			c := j.Cells[fp]
			if c.State != cellDone {
				continue
			}
			if _, ok := q.store.Load(fp); ok {
				continue
			}
			if c.Cached {
				j.Cached--
			} else {
				j.Computed--
			}
			c.State, c.Cached = cellQueued, false
			rescinded = append(rescinded, fp)
		}
		if len(rescinded) > 0 {
			j.Slices = append([]*queueSlice{{Pending: rescinded}}, j.Slices...)
			requeued += len(rescinded)
		}
	}
	return requeued
}
