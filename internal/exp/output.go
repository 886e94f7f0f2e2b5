package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/perf"
	"repro/internal/tables"
)

// WriteJSON emits results as an indented JSON array. Serialization is
// canonical: identical result sets marshal to identical bytes.
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// MarshalResults returns the canonical JSON of a result set (the byte
// string the determinism tests compare).
func MarshalResults(results []Result) []byte {
	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		panic("exp: unmarshalable results: " + err.Error())
	}
	return blob
}

// csvHeaders is the flat per-experiment schema of WriteCSV.
var csvHeaders = []string{
	"fingerprint", "impl", "tuning", "topology", "workload", "eager_threshold",
	"elapsed_us", "dnf", "max_mbps", "p2p_sends", "p2p_bytes",
	"wan_sends", "wan_bytes", "rendezvous", "unexpected", "err",
}

// WriteCSV emits one row per result with the headline metrics.
func WriteCSV(w io.Writer, results []Result) error {
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			r.Exp.Fingerprint(),
			r.Exp.Impl,
			r.Exp.Tuning.String(),
			r.Exp.Topology.String(),
			r.Exp.Workload.String(),
			fmt.Sprintf("%d", r.Exp.EagerThreshold),
			fmt.Sprintf("%.1f", float64(r.Elapsed)/float64(time.Microsecond)),
			fmt.Sprintf("%v", r.DNF),
			fmt.Sprintf("%.2f", r.MaxMbps()),
			fmt.Sprintf("%d", r.Census.P2PSends),
			fmt.Sprintf("%d", r.Census.P2PBytes),
			fmt.Sprintf("%d", r.Census.WANSends),
			fmt.Sprintf("%d", r.Census.WANBytes),
			fmt.Sprintf("%d", r.Census.Rendezvous),
			fmt.Sprintf("%d", r.Census.Unexpected),
			r.Err,
		})
	}
	out, err := tables.CSV(csvHeaders, rows)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, out)
	return err
}

// headline is the one-cell summary of a result in matrix renderings.
func headline(r Result) string {
	switch {
	case r.Err != "":
		return "ERR"
	case r.DNF:
		return "DNF"
	case r.Exp.Workload.Kind == KindPingPong:
		return fmt.Sprintf("%.1f", r.MaxMbps())
	case r.Exp.Workload.Kind == KindTrace:
		return fmt.Sprintf("%.1f", perf.MaxMbps(r.Trace))
	default:
		return fmt.Sprintf("%.2fs", r.Elapsed.Seconds())
	}
}

// MatrixTable pivots a result set into an implementation × configuration
// table: one row per implementation, one column per distinct
// (tuning, topology, workload, threshold) combination, in order of first
// appearance. Pingpong cells show max bandwidth in Mbps; other workloads
// show elapsed virtual time (DNF when timed out).
func MatrixTable(title string, results []Result) string {
	if len(results) == 0 {
		return title + "\n" + tables.Render([]string{"impl"}, nil)
	}
	// Column labels keep only the axes that actually vary across the set.
	sameTopo, sameWl, sameThr := true, true, true
	for _, r := range results {
		if r.Exp.Topology.String() != results[0].Exp.Topology.String() {
			sameTopo = false
		}
		if r.Exp.Workload.String() != results[0].Exp.Workload.String() {
			sameWl = false
		}
		if r.Exp.EagerThreshold != results[0].Exp.EagerThreshold {
			sameThr = false
		}
	}
	colKey := func(r Result) string {
		k := r.Exp.Tuning.String()
		if !sameTopo {
			k += " " + r.Exp.Topology.String()
		}
		if !sameWl {
			k += " " + r.Exp.Workload.String()
		}
		if !sameThr {
			k += fmt.Sprintf(" eager=%s", tables.Size(int64(r.Exp.EagerThreshold)))
		}
		return k
	}

	var impls, cols []string
	seenImpl := map[string]bool{}
	seenCol := map[string]bool{}
	cells := map[string]map[string]string{}
	for _, r := range results {
		ck := colKey(r)
		if !seenImpl[r.Exp.Impl] {
			seenImpl[r.Exp.Impl] = true
			impls = append(impls, r.Exp.Impl)
		}
		if !seenCol[ck] {
			seenCol[ck] = true
			cols = append(cols, ck)
		}
		if cells[r.Exp.Impl] == nil {
			cells[r.Exp.Impl] = map[string]string{}
		}
		cells[r.Exp.Impl][ck] = headline(r)
	}
	headers := append([]string{"impl"}, cols...)
	rows := make([][]string, 0, len(impls))
	for _, impl := range impls {
		row := []string{impl}
		for _, c := range cols {
			cell, ok := cells[impl][c]
			if !ok {
				cell = "-"
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return title + "\n" + tables.Render(headers, rows)
}
