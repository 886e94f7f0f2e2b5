package exp

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fuzzJournalBase builds a real journal over an empty store: a snapshot
// holding one job with a live lease, then a steal, a verified and a
// failed report, and the expiry of both leases. It returns the snapshot frame and the frames
// of the records that follow it.
func fuzzJournalBase(tb testing.TB, store *DiskCache) (snapshot []byte, records [][]byte) {
	dir := tb.TempDir()
	q, _, err := RecoverJobQueue(store, QueueConfig{TTL: time.Minute, Slices: 1}, dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer q.Close()
	clock := time.Unix(1_000_000, 0)
	q.now = func() time.Time { return clock }
	if _, err := q.Submit(tinyMatrix(), 1); err != nil {
		tb.Fatal(err)
	}
	donor, ok := q.Lease("w1")
	if !ok {
		tb.Fatal("no lease")
	}
	if err := q.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	thief, ok := q.Lease("w2")
	if !ok || thief.Lease == donor.Lease {
		tb.Fatal("no steal")
	}
	computeAndStore(tb, store, donor.Cells[0])
	q.Report(donor.Job, donor.Lease, "w1", donor.Cells[0].Fingerprint(), false, "")
	q.Report(thief.Job, thief.Lease, "w2", thief.Cells[0].Fingerprint(), true, "defect")
	clock = clock.Add(2 * time.Minute)
	q.Jobs()

	blob, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		tb.Fatal(err)
	}
	for off := 0; off < len(blob); {
		n := 8 + int(uint32(blob[off])|uint32(blob[off+1])<<8|uint32(blob[off+2])<<16|uint32(blob[off+3])<<24)
		records = append(records, blob[off:off+n])
		off += n
	}
	if len(records) != 6 {
		tb.Fatalf("base journal holds %d frames, want snapshot, steal, 2 reports, 2 expiries", len(records))
	}
	return records[0], records[1:]
}

// FuzzJournalReplay feeds arbitrary bytes to journal recovery twice:
// once as the whole log, and once as the payload of one record framed
// with a valid checksum behind a real snapshot, so fuzzed JSON reaches
// apply. Recovery must never panic, and neither may Jobs, Submit, Lease
// and Report on the queue it recovers.
func FuzzJournalReplay(f *testing.F) {
	store, err := NewDiskCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	snapshot, _ := fuzzJournalBase(f, store)
	cfg := QueueConfig{TTL: time.Minute, Slices: 1}
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, wal := range [][]byte{blob, append(append([]byte(nil), snapshot...), frame(blob)...)} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
				t.Fatal(err)
			}
			q, _, err := RecoverJobQueue(store, cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			q.Jobs()
			if _, err := q.Submit(tinyMatrix(), 2); err != nil {
				t.Fatal(err)
			}
			for range 3 {
				g, ok := q.Lease("fuzz")
				if !ok {
					break
				}
				for _, e := range g.Cells {
					q.Report(g.Job, g.Lease, "fuzz", e.Fingerprint(), false, "")
				}
			}
			q.Jobs()
			q.Close()
		}
	})
}
