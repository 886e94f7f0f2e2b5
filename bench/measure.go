package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
)

// A run spends about setupBudget setting its workload up, at least
// minSetups and at most maxSetups times: once before the rounds, the
// rest spread evenly between them. setup_s is the median. The spreading
// matters for set-ups of a fraction of a millisecond: on a shared host
// they run at one of two speeds, in phases lasting from a tenth of a
// second to seconds, and only a sample taken across the whole run holds
// the same mix of the two in every run.
const (
	minSetups   = 3
	maxSetups   = 1000
	setupBudget = time.Second
)

// options configure one measurement.
type options struct {
	seed    uint64
	seconds int    // run length, turned into a fixed round count
	tmp     string // directory for the workloads' temporary stores
	// expect maps workload names to the digest every round must
	// reproduce; workloads without an entry must reproduce their own
	// warm-up round.
	expect map[string]string
	tr     *tracer // nil: the untraced run
}

// report is everything measured on one workload.
type report struct {
	Name          string   `json:"name"`
	CellsPerRound int      `json:"cells_per_round"`
	Rounds        int      `json:"rounds"`
	TracedRounds  int      `json:"traced_rounds,omitempty"`
	Digest        string   `json:"digest"`
	Attempted     int      `json:"attempted"`
	Failed        int      `json:"failed"`
	EndToEnd      []metric `json:"end_to_end"`
	// Layers are the per-layer metrics every workload reports; Extra
	// are those of layers only this workload exercises.
	Layers []metric `json:"per_layer,omitempty"`
	Extra  []metric `json:"per_layer_extra,omitempty"`
	Errors []string `json:"errors,omitempty"`
}

func (r *report) failf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// measure sets the workload up, warms it up with one untimed round, then
// runs the workload's fixed number of measured rounds, setting it up
// again between them to time setup_s. With a tracer it then adds the
// traced pass. Every round's digest must match the expected one; a
// mismatch fails the round's cells.
func measure(w *workload, o options) (*report, error) {
	rep := &report{Name: w.name}
	s, d, err := timedSetUp(w, o)
	if err != nil {
		return nil, err
	}
	defer s.close()
	setups := []float64{d.Seconds()}
	nSetups := min(max(int(setupBudget/max(d, 1))+1, minSetups), maxSetups)
	if err := s.warmUp(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	rep.CellsPerRound, rep.Digest = len(s.cells), s.want
	want := s.want
	if committed, ok := o.expect[w.name]; ok {
		want = committed
	}

	var outs []roundOut
	rounds := w.rounds(o.seconds, len(s.cells))
	for r := 1; r <= rounds; r++ {
		if due := 1 + (nSetups-1)*r/rounds; len(setups) < due {
			runtime.GC() // the last round's garbage is not the set-up's
			for len(setups) < due {
				extra, d, err := timedSetUp(w, o)
				if err != nil {
					return nil, err
				}
				extra.close()
				setups = append(setups, d.Seconds())
			}
		}
		out, err := runRound(s, r, nil, want, rep)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	rep.Rounds = len(outs)
	var cellMS, allocMB []float64
	for _, out := range outs {
		cellMS = append(cellMS, out.cellMS...)
		allocMB = append(allocMB, float64(out.alloc)/1e6)
	}
	p99, err := percentile(cellMS, 99)
	if err != nil {
		return nil, fmt.Errorf("%s: cell_ms_p99: %w", w.name, err)
	}
	alloc := sampled("alloc_mb_per_round", "MB", allocMB)
	alloc.Value = sum(allocMB) / float64(len(allocMB))
	rep.EndToEnd = []metric{
		sampled("setup_s", "s", setups),
		perSecond("cells_per_s", "cells/s", float64(len(s.cells)), roundSeconds(outs)),
		sampled("cell_ms_p50", "ms", cellMS),
		exact("cell_ms_p99", "ms", p99, len(cellMS)),
		alloc,
	}
	if o.tr != nil {
		if err := traceWorkload(s, o.tr, rep, want, roundSeconds(outs)); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
	}
	return rep, nil
}

// timedSetUp sets the workload up once and returns the process CPU
// time it took.
func timedSetUp(w *workload, o options) (*fixture, time.Duration, error) {
	c0 := processCPU()
	s, err := setUp(w, o.seed, o.tmp)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return s, processCPU() - c0, nil
}

// runRound runs one round after a collection, so garbage from earlier
// rounds is not collected on this round's clock, and checks its digest.
func runRound(s *fixture, r int, tr *tracer, want string, rep *report) (roundOut, error) {
	runtime.GC()
	out, err := s.round(r, tr)
	if err != nil {
		return out, fmt.Errorf("%s: round %d: %w", rep.Name, r, err)
	}
	rep.Attempted += len(s.cells)
	if out.digest != want {
		rep.failf("round %d: digest %s, want %s", r, out.digest, want)
		out.failed = len(s.cells)
	}
	// Drop the results: kept for every round, they would grow the live
	// heap and with it the cost of each later round's collections.
	out.results = nil
	rep.Failed += out.failed
	tr.span("round", fmt.Sprintf("round %d", r), 0, out.start, out.wall, map[string]any{"digest": out.digest})
	return out, nil
}

// roundSeconds is each round's length as two cores of their own would
// run it: the process CPU time the round used, divided between the
// clients. Unlike wall time, it leaves out the time the host gave the
// vCPUs to other tenants; like it, it counts collections and the
// runtime's own threads.
func roundSeconds(outs []roundOut) []float64 {
	secs := make([]float64, len(outs))
	for i, out := range outs {
		secs[i] = out.cpu.Seconds() / clients
	}
	return secs
}

// perSecond turns per-round times into a rate: n ÷ the median time,
// with the quartiles swapped into rate order.
func perSecond(name, unit string, n float64, secs []float64) metric {
	q1, m, q3 := quartiles(secs)
	return metric{Name: name, Value: n / m, Unit: unit, N: len(secs), Q1: n / q3, Q3: n / q1}
}

// tracedRounds is the traced pass's length: a quarter of the measured
// rounds, at least 5 and at most 40 (spans are held in memory).
func tracedRounds(measured int) int { return min(max(measured/4, 5), 40) }

// traceWorkload is the traced pass: an untimed sequential pass counting
// each cell's kernel events, then traced rounds on the same two clients.
func traceWorkload(s *fixture, tr *tracer, rep *report, want string, untraced []float64) error {
	events, err := countEvents(s.cells)
	if err != nil {
		return err
	}
	s.events = events
	tr.process(rep.Name)
	var outs []roundOut
	for r := 1; r <= tracedRounds(rep.Rounds); r++ {
		out, err := runRound(s, r, tr, want, rep)
		if err != nil {
			return err
		}
		outs = append(outs, out)
	}
	rep.TracedRounds = len(outs)
	rep.Layers, rep.Extra = layerMetrics(s, outs, untraced)
	return nil
}

// countEvents runs every cell once, sequentially, reading each kernel's
// executed-event count through the sim.NewHook seam.
func countEvents(cells []exp.Experiment) (map[string]uint64, error) {
	var kernels []*sim.Kernel
	sim.NewHook = func(k *sim.Kernel) { kernels = append(kernels, k) }
	defer func() { sim.NewHook = nil }()
	events := make(map[string]uint64, len(cells))
	for _, e := range cells {
		kernels = kernels[:0]
		if res := exp.Run(e); res.Err != "" {
			return nil, fmt.Errorf("counting %s: %s", e.Name(), res.Err)
		}
		var n uint64
		for _, k := range kernels {
			n += k.Executed
		}
		events[e.Fingerprint()] = n
	}
	return events, nil
}

// layerMetrics derives the per-layer numbers from the traced rounds, the
// reference results' census and the event counts; untraced holds the
// untraced rounds' roundSeconds.
func layerMetrics(s *fixture, outs []roundOut, untraced []float64) (common, extra []metric) {
	cells := float64(len(s.cells))
	var events uint64
	for _, n := range s.events {
		events += n
	}
	var census exp.Census
	var coll int64
	for _, res := range s.ref {
		c := res.Census
		census.P2PSends += c.P2PSends
		census.WANSends += c.WANSends
		census.P2PBytes += c.P2PBytes
		census.Rendezvous += c.Rendezvous
		for _, cc := range c.Collectives {
			coll += cc.Calls
		}
	}
	var nsPerEvent, idle []float64
	kindMS := make(map[string][]float64)
	for _, out := range outs {
		nsPerEvent = append(nsPerEvent, sum(out.cellMS)*1e6/float64(events))
		idle = append(idle, 1-out.busy.Seconds()/(clients*out.wall.Seconds()))
		for kind, ms := range out.kindMS {
			kindMS[kind] = append(kindMS[kind], ms...)
		}
	}
	n := len(s.cells)
	fpUS := make([]float64, probeReps)
	for i := range fpUS {
		t0 := time.Now()
		for _, e := range s.cells {
			e.Fingerprint()
		}
		fpUS[i] = float64(time.Since(t0).Nanoseconds()) / 1e3 / cells
	}
	common = []metric{
		exact("sim.events_per_cell", "count", float64(events)/cells, n),
		sampled("sim.ns_per_event", "ns", nsPerEvent),
		exact("mpi.msgs_per_cell", "count", float64(census.P2PSends)/cells, n),
		exact("mpi.wan_msgs_per_cell", "count", float64(census.WANSends)/cells, n),
		exact("mpi.bytes_per_cell", "B", float64(census.P2PBytes)/cells, n),
		exact("mpi.coll_calls_per_cell", "count", float64(coll)/cells, n),
		exact("mpi.rendezvous_per_cell", "count", float64(census.Rendezvous)/cells, n),
		sampled("exp.runner.idle_share", "ratio", idle),
		sampled("exp.fingerprint_us", "us", fpUS),
		exact("trace.overhead_share", "ratio", 1-median(untraced)/median(roundSeconds(outs)), len(outs)),
	}
	for _, kind := range []string{exp.KindPingPong, exp.KindNPB, exp.KindRay2Mesh, exp.KindPattern} {
		if ms := kindMS[kind]; len(ms) > 0 {
			extra = append(extra, sampled("exp.cell_ms."+kind+"_p50", "ms", ms))
		}
	}
	extra = append(extra, storeMetrics(outs)...)
	extra = append(extra, fleetMetrics(outs, n)...)
	return common, extra
}

// storeMetrics summarizes the metered store calls, where the workload
// reads through a Store; counts are per round.
func storeMetrics(outs []roundOut) []metric {
	var loads []float64
	hits, misses := 0, 0
	for _, out := range outs {
		for _, m := range out.store {
			loads = append(loads, m.loadUS...)
			hits += m.hits
			misses += m.misses
		}
	}
	if len(loads) == 0 {
		return nil
	}
	out := []metric{sampled("exp.store.load_us_p50", "us", loads)}
	if p99, err := percentile(loads, 99); err == nil {
		out = append(out, exact("exp.store.load_us_p99", "us", p99, len(loads)))
	}
	rounds := float64(len(outs))
	return append(out,
		exact("exp.store.hits", "count", float64(hits)/rounds, len(outs)),
		exact("exp.store.misses", "count", float64(misses)/rounds, len(outs)))
}

// fleetMetrics summarizes the control plane as the server middleware and
// the journal saw it; counts are per round or per cell.
func fleetMetrics(outs []roundOut, cells int) []metric {
	routes := make(map[string][]float64)
	var requests, empty, http5xx, ran, records, compactions int64
	var walBytes, recoverMS []float64
	for _, out := range outs {
		if out.http == nil {
			return nil
		}
		for route, ms := range out.http.routeMS {
			routes[route] = append(routes[route], ms...)
		}
		requests += int64(out.http.requests)
		empty += int64(out.http.empty)
		http5xx += out.http.status5xx.Load()
		ran += int64(out.workerCells)
		if j := out.journal; j != nil {
			records += j.Appended
			compactions += j.Compactions
			walBytes = append(walBytes, float64(j.WALBytes)/float64(cells))
		}
		recoverMS = append(recoverMS, out.recoverMS)
	}
	rounds := float64(len(outs))
	var ms []metric
	for _, r := range []struct{ route, name string }{
		{"lease", "exp.queue.lease_ms"}, {"report", "exp.queue.report_ms"},
		{"put", "exp.store.put_ms"}, {"get", "exp.store.get_ms"},
	} {
		xs := routes[r.route]
		if len(xs) == 0 {
			continue
		}
		ms = append(ms, sampled(r.name+"_p50", "ms", xs))
		if r.route == "get" {
			continue
		}
		if p99, err := percentile(xs, 99); err == nil {
			ms = append(ms, exact(r.name+"_p99", "ms", p99, len(xs)))
		}
	}
	return append(ms,
		exact("exp.queue.requests_per_cell", "count", float64(requests)/rounds/float64(cells), len(outs)),
		exact("exp.queue.empty_leases", "count", float64(empty)/rounds, len(outs)),
		exact("exp.queue.useful_ratio", "ratio", float64(cells)*rounds/float64(ran), len(outs)),
		exact("exp.queue.http_5xx", "count", float64(http5xx)/rounds, len(outs)),
		exact("exp.journal.records_per_cell", "count", float64(records)/rounds/float64(cells), len(outs)),
		sampled("exp.journal.bytes_per_cell", "B", walBytes),
		exact("exp.journal.compactions", "count", float64(compactions)/rounds, len(outs)),
		sampled("exp.journal.recover_ms", "ms", recoverMS))
}

// loadDigests parses a digests file: workload name to SHA-256 of
// exp.MarshalResults at seed 1.
func loadDigests(blob []byte) (map[string]string, error) {
	m := make(map[string]string)
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	return m, nil
}

// writeDigests merges the measured digests into the digests file.
func writeDigests(path string, reps []*report) error {
	m := make(map[string]string)
	if blob, err := os.ReadFile(path); err == nil {
		if m, err = loadDigests(blob); err != nil {
			return err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, r := range reps {
		m[r.Name] = r.Digest
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
