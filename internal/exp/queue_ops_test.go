package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpiimpl"
)

var updateQueueOps = flag.Bool("update-queue-ops", false, "rewrite testdata/queue_ops.golden")

// opsPool is the cell pool the seeded queue op sequences draw from, with
// every cell's result computed once.
var opsPool = sync.OnceValues(func() ([]Experiment, []Result) {
	cells := Sweep{
		Impls:      []string{mpiimpl.GridMPI, mpiimpl.MPICH2},
		Tunings:    []Tuning{{}, {TCP: true}},
		Topologies: []Topology{Grid(1)},
		Workloads: []Workload{
			PingPongWorkload(tinySizes, 1),
			PingPongWorkload(tinySizes, 2),
			PingPongWorkload(tinySizes, 3),
		},
	}.Experiments()
	return cells, NewRunner(2).RunAll(cells)
})

// opsTTL and opsSlices are the queue tuning every op sequence runs with.
const (
	opsTTL    = time.Minute
	opsSlices = 2
)

// heldGrant is a lease as its worker sees it: the cells not yet reported.
type heldGrant struct {
	LeaseGrant
	todo []Experiment
}

// opsRun drives one seeded sequence of queue operations the way a fleet
// would: submissions (some cells already in the store, duplicate cells
// and duplicate jobs, 0–4 slices), leases by three workers (so steals
// happen), verified, unverified and failed reports, and clock jumps past
// the lease TTL. The sequence is a pure function of the seed and the
// answers, so two runs of one seed against equal queues stay in step.
type opsRun struct {
	t       *testing.T
	rng     *rand.Rand
	q       *JobQueue
	store   *DiskCache
	clock   *time.Time
	results map[string]Result
	cells   []Experiment
	subs    [][]Experiment
	held    map[string][]*heldGrant
	// delivered records, per lease, the fingerprints handed to its worker
	// as drop lists.
	delivered map[string]map[string]bool
	// record receives every answer and a Jobs() snapshot after each op.
	record func(label string, v any)
}

var opsWorkers = []string{"w1", "w2", "w3"}

// newOpsRun wires a run of seed over q (whose clock must read *clock)
// and store.
func newOpsRun(t *testing.T, seed uint64, q *JobQueue, store *DiskCache, clock *time.Time) *opsRun {
	t.Helper()
	cells, results := opsPool()
	r := &opsRun{
		t: t, rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		q: q, store: store, clock: clock, cells: cells,
		results:   make(map[string]Result, len(cells)),
		held:      make(map[string][]*heldGrant),
		delivered: make(map[string]map[string]bool),
		record:    func(string, any) {},
	}
	for i, e := range cells {
		if results[i].Err != "" {
			t.Fatalf("pool cell %s: %s", e.Name(), results[i].Err)
		}
		r.results[e.Fingerprint()] = results[i]
	}
	return r
}

// newOpsQueue is a journal-less queue with the op sequences' tuning on a
// fresh store, and the clock it reads.
func newOpsQueue(t *testing.T, dir string) (*JobQueue, *DiskCache, *time.Time) {
	t.Helper()
	store, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1_000_000, 0)
	q := NewJobQueue(store, QueueConfig{TTL: opsTTL, Slices: opsSlices})
	q.now = func() time.Time { return clock }
	return q, store, &clock
}

func (r *opsRun) publish(e Experiment) {
	fp := e.Fingerprint()
	if err := r.store.Store(fp, r.results[fp]); err != nil {
		r.t.Fatal(err)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// step runs one operation and then snapshots Jobs().
func (r *opsRun) step() {
	switch n := r.rng.IntN(20); {
	case n < 4:
		r.submit()
	case n < 9:
		w := opsWorkers[r.rng.IntN(len(opsWorkers))]
		g, ok := r.q.Lease(w)
		r.record("lease "+w, struct {
			G  LeaseGrant
			OK bool
		}{g, ok})
		if ok {
			r.held[w] = append(r.held[w], &heldGrant{LeaseGrant: g, todo: g.Cells})
		}
	case n < 18:
		r.report()
	default:
		d := time.Duration(1+r.rng.IntN(5)) * time.Second
		if r.rng.IntN(2) == 0 {
			d += opsTTL
		}
		*r.clock = r.clock.Add(d)
		r.record("clock", d)
	}
	r.record("jobs", r.q.Jobs())
}

// submit sends a fresh cell set, or one seen before in a new order, or
// (rarely) nothing at all.
func (r *opsRun) submit() {
	var cells []Experiment
	switch n := r.rng.IntN(10); {
	case n == 0:
	case n < 3 && len(r.subs) > 0:
		cells = append(cells, r.subs[r.rng.IntN(len(r.subs))]...)
		r.rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	default:
		for _, i := range r.rng.Perm(len(r.cells))[:1+r.rng.IntN(6)] {
			cells = append(cells, r.cells[i])
			if r.rng.IntN(4) == 0 {
				r.publish(r.cells[i]) // already cached at submission
			}
		}
		if r.rng.IntN(4) == 0 {
			cells = append(cells, cells[0])
		}
	}
	if len(cells) > 0 {
		r.subs = append(r.subs, cells)
	}
	st, err := r.q.Submit(cells, r.rng.IntN(5))
	r.record("submit", struct {
		St  JobStatus
		Err string
	}{st, errText(err)})
}

// report closes out the next cell of a random held grant: verified
// (published first), unverified (claimed without publishing) or failed.
// The drop list on the ack removes cells from the grant, as Work does.
func (r *opsRun) report() {
	var holders []string
	for _, w := range opsWorkers {
		if len(r.held[w]) > 0 {
			holders = append(holders, w)
		}
	}
	if len(holders) == 0 {
		return
	}
	w := holders[r.rng.IntN(len(holders))]
	gi := r.rng.IntN(len(r.held[w]))
	g := r.held[w][gi]
	e := g.todo[0]
	g.todo = g.todo[1:]
	failed, msg := false, ""
	switch n := r.rng.IntN(10); {
	case n < 7:
		r.publish(e)
	case n < 8:
	default:
		failed, msg = true, fmt.Sprintf("synthetic defect %d", r.rng.IntN(100))
	}
	ack, err := r.q.Report(g.Job, g.Lease, w, e.Fingerprint(), failed, msg)
	r.record("report "+w, struct {
		A   ReportAck
		Err string
	}{ack, errText(err)})
	r.dropped(g, ack.Drop)
	if len(g.todo) == 0 {
		r.held[w] = append(r.held[w][:gi], r.held[w][gi+1:]...)
	}
}

// dropped removes a drop list's cells from g and remembers their delivery.
func (r *opsRun) dropped(g *heldGrant, drop []string) {
	if len(drop) == 0 {
		return
	}
	if r.delivered[g.Lease] == nil {
		r.delivered[g.Lease] = make(map[string]bool)
	}
	var kept []Experiment
	for _, fp := range drop {
		r.delivered[g.Lease][fp] = true
	}
	for _, e := range g.todo {
		if !r.delivered[g.Lease][e.Fingerprint()] {
			kept = append(kept, e)
		}
	}
	g.todo = kept
}

// queueOpsDigest runs seed's op sequence on a journal-less queue and
// hashes every answer and every Jobs() snapshot.
func queueOpsDigest(t *testing.T, seed uint64, ops int) string {
	q, store, clock := newOpsQueue(t, t.TempDir())
	r := newOpsRun(t, seed, q, store, clock)
	h := sha256.New()
	r.record = func(label string, v any) {
		io.WriteString(h, label+"\n")
		if err := json.NewEncoder(h).Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	for range ops {
		r.step()
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestJobQueueOpsGolden locks every live queue decision: 80 seeded op
// sequences on a journal-less queue, each hashed over every Submit,
// Lease and Report answer and every Jobs() snapshot, must match the
// digests recorded before the queue's transitions moved into apply.
func TestJobQueueOpsGolden(t *testing.T) {
	const seeds, ops = 80, 40
	var got bytes.Buffer
	for seed := uint64(1); seed <= seeds; seed++ {
		fmt.Fprintf(&got, "seed %02d %s\n", seed, queueOpsDigest(t, seed, ops))
	}
	path := filepath.Join("testdata", "queue_ops.golden")
	if *updateQueueOps {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-queue-ops to record it)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("queue decisions changed:\n got %s\nwant %s", g, w)
		}
	}
}

// copyJournalDir copies every file of a journal directory into a fresh
// one, so a recovery can run without touching the live journal.
func copyJournalDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// ageless is Jobs() without worker ages, which a restart may move.
func ageless(jobs []JobStatus) string {
	for i := range jobs {
		for k := range jobs[i].Workers {
			jobs[i].Workers[k].LastSeenMS, jobs[i].Workers[k].Live = 0, false
		}
	}
	blob, _ := json.Marshal(jobs)
	return string(blob)
}

// TestJobQueueRecoveryMatchesLive: a journaled queue recovered at any
// step of a seeded op sequence (a Checkpoint somewhere in the middle)
// must hold the live queue's scheduling state. Recovered and live
// queues must agree on Jobs() (worker ages aside), on the drop list each
// lease holder's next report returns (a recovered list may repeat drops
// the live queue already delivered, nothing else), and on every grant a
// new worker receives while draining them. The live side at step i is a
// journal-less replay of the first i ops.
func TestJobQueueRecoveryMatchesLive(t *testing.T) {
	seeds, ops := uint64(40), 24
	if testing.Short() {
		seeds = 10
	}
	cfg := QueueConfig{TTL: opsTTL, Slices: opsSlices}
	for seed := uint64(1); seed <= seeds; seed++ {
		store, err := NewDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		jdir := t.TempDir()
		live, _, err := RecoverJobQueue(store, cfg, jdir)
		if err != nil {
			t.Fatal(err)
		}
		clock := time.Unix(1_000_000, 0)
		live.now = func() time.Time { return clock }
		run := newOpsRun(t, seed, live, store, &clock)
		checkpoint := 1 + int(seed)%(ops-2)
		for i := 1; i <= ops; i++ {
			run.step()
			if i == checkpoint {
				if err := live.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if msg := compareRecovery(t, seed, i, live, jdir, store, clock); msg != "" {
				t.Errorf("seed %d, after op %d: %s", seed, i, msg)
				break
			}
		}
		live.Close()
	}
}

// compareRecovery recovers a copy of jdir and checks it against a
// journal-less replay of seed's first i ops; "" means they agree.
func compareRecovery(t *testing.T, seed uint64, i int, live *JobQueue, jdir string, store *DiskCache, now time.Time) string {
	rec, _, err := RecoverJobQueue(store, QueueConfig{TTL: opsTTL, Slices: opsSlices}, copyJournalDir(t, jdir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rec.now = func() time.Time { return now }

	twin, twinStore, clock := newOpsQueue(t, t.TempDir())
	run := newOpsRun(t, seed, twin, twinStore, clock)
	for range i {
		run.step()
	}
	want := ageless(twin.Jobs())
	if got := ageless(live.Jobs()); got != want {
		t.Fatalf("journal-less replay diverged from the live queue:\n live %s\n twin %s", got, want)
	}
	if got := ageless(rec.Jobs()); got != want {
		return fmt.Sprintf("Jobs() differ:\n recovered %s\n      live %s", got, want)
	}

	// Each lease holder's next report: the recovered drop list, less
	// drops the live queue already delivered, is the live one.
	for _, w := range opsWorkers {
		for _, g := range run.held[w] {
			fp := g.todo[0].Fingerprint()
			ack, err := twin.Report(g.Job, g.Lease, w, fp, false, "")
			rack, rerr := rec.Report(g.Job, g.Lease, w, fp, false, "")
			var redrop []string
			for _, d := range rack.Drop {
				if !run.delivered[g.Lease][d] {
					redrop = append(redrop, d)
				}
			}
			rack.Drop = redrop
			if fmt.Sprint(ack, err) != fmt.Sprint(rack, rerr) {
				return fmt.Sprintf("%s's report on %s: recovered %v, %v; live %v, %v", w, g.Lease, rack, rerr, ack, err)
			}
		}
	}

	// A new worker drains both queues: same grants, same order.
	for n := 0; ; n++ {
		g, ok := twin.Lease("drainer")
		rg, rok := rec.Lease("drainer")
		if a, b := fmt.Sprint(g, ok), fmt.Sprint(rg, rok); a != b {
			return fmt.Sprintf("drain grant %d: recovered %s; live %s", n, b, a)
		}
		if !ok {
			return ""
		}
		if n > 100 {
			return "draining never ends"
		}
	}
}
