// Command bench is the reproduction's benchmark. It drives the public
// entry points of the simulator and its fleet from outside on five
// workloads, checks every result against committed digests, and prints
// each metric by name with its unit, sample count and quartiles. The
// last line of standard output is one JSON object summarizing the run.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -seed 1 -out run.json
//	bash bench/run.sh -seed 1 -trace 1 -trace-out trace.json
//	bash bench/run.sh -compare base*.json -- head*.json
//
// See bench/README.md for the workloads, the metrics and the rules for
// claiming a change.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
)

//go:embed testdata/digests.json
var committedDigests []byte

// digestsPath is where -update-digests writes, relative to the
// repository root the benchmark runs from.
const digestsPath = "bench/testdata/digests.json"

// commit may be stamped at link time (bench/ab.sh does, building from
// an archive without VCS data); otherwise the build's VCS stamp is used.
var commit string

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "workload seed: draws grid-collectives and fleet sizes and each round's cell order")
	seconds := fs.Int("seconds", 10, "run length per workload, as a fixed round count: the rounds the reference box runs in that time")
	sel := fs.String("workload", "", "comma-separated workloads to run (default: all but fleet)")
	trace := fs.Int("trace", 0, "1 adds the traced pass: per-layer metrics, probes and spans")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans here as Chrome trace-event JSON")
	outPath := fs.String("out", "", "write the run's metadata and every metric here as JSON")
	update := fs.Bool("update-digests", false, "rewrite "+digestsPath+" from this run (seed 1 only)")
	cmp := fs.Bool("compare", false, "compare runs instead: -compare base.json... -- head.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return compareMain(fs.Args(), stdout, stderr)
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", args...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return usage("-trace takes 0 or 1, not %d", *trace)
	case *seconds < 1:
		return usage("-seconds must be at least 1")
	case *update && *seed != 1:
		return usage("-update-digests records seed 1 only")
	case *traceOut != "" && *trace != 1:
		return usage("-trace-out needs -trace 1")
	}
	chosen, err := selectWorkloads(*sel)
	if err != nil {
		return usage("%v", err)
	}
	expect := map[string]string{}
	if *seed == 1 && !*update {
		if expect, err = loadDigests(committedDigests); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	runtime.GOMAXPROCS(clients)
	m := newMeta(*seed, *seconds, *trace == 1, chosen)
	m.print(stdout)
	tmp, err := os.MkdirTemp("", "bench-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	var tr *tracer
	if m.Traced {
		tr = newTracer()
	}

	rf := runFile{Meta: m}
	for _, w := range chosen {
		fmt.Fprintf(stderr, "bench: %s ...\n", w.name)
		rep, err := measure(w, options{seed: *seed, seconds: *seconds, tmp: tmp, expect: expect, tr: tr})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for _, e := range rep.Errors {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, e)
		}
		rf.Workloads = append(rf.Workloads, rep)
	}
	if m.Traced {
		if rf.Probes, err = runProbes(tr); err != nil {
			fmt.Fprintln(stderr, "bench: probes:", err)
			return 1
		}
	}
	rf.printTable(stdout)

	if *update {
		err = writeDigests(digestsPath, rf.Workloads)
	}
	if err == nil && *outPath != "" {
		err = rf.write(*outPath)
	}
	if err == nil && *traceOut != "" {
		err = tr.write(*traceOut)
	}
	var line []byte
	if err == nil {
		line, err = json.Marshal(rf.resultLine())
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rf.correct() {
		return 1
	}
	return 0
}

func selectWorkloads(sel string) ([]*workload, error) {
	if sel == "" {
		return workloads, nil
	}
	var chosen []*workload
	for _, name := range strings.Split(sel, ",") {
		w := lookup(strings.TrimSpace(name))
		if w == nil {
			var names []string
			for _, w := range append(workloads, fleet) {
				names = append(names, w.name)
			}
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
		}
		chosen = append(chosen, w)
	}
	return chosen, nil
}

// meta describes the run: what was measured, on what, with what.
type meta struct {
	Commit     string         `json:"commit"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Rounds     map[string]int `json:"rounds"`
	Clients    int            `json:"clients"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	Go         string         `json:"go"`
	CPU        string         `json:"cpu"`
	Traced     bool           `json:"traced"`
}

func newMeta(seed uint64, seconds int, traced bool, chosen []*workload) meta {
	m := meta{
		Commit: buildCommit(), Seed: seed, Seconds: seconds, Rounds: map[string]int{},
		Clients: clients, GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Go: runtime.Version(), CPU: cpuModel(), Traced: traced,
	}
	for _, w := range chosen {
		m.Rounds[w.name] = w.rounds(seconds, len(w.cells(seed)))
	}
	return m
}

func (m meta) print(w io.Writer) {
	mode := "untraced"
	if m.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# commit %s, seed %d, %s\n", m.Commit, m.Seed, mode)
	fmt.Fprintf(w, "# -seconds %d: rounds %v\n", m.Seconds, m.Rounds)
	fmt.Fprintf(w, "# %d clients, GOMAXPROCS %d, nproc %d, %s, %s\n", m.Clients, m.GOMAXPROCS, m.NProc, m.Go, m.CPU)
}

func buildCommit() string {
	if commit != "" {
		return commit
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runFile is the -out document; -compare reads it back.
type runFile struct {
	Meta      meta      `json:"meta"`
	Workloads []*report `json:"workloads"`
	Probes    []metric  `json:"probes,omitempty"`
}

func (rf *runFile) write(path string) error {
	blob, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func (rf *runFile) correct() bool {
	for _, r := range rf.Workloads {
		if r.Failed > 0 || len(r.Errors) > 0 {
			return false
		}
	}
	return true
}

// failRatio is the sixth end-to-end metric. It is derived from the
// attempted and failed counts rather than stored, because it is zero
// whenever the run is correct.
func (r *report) failRatio() metric {
	return exact("fail_ratio", "ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Attempted)
}

func (rf *runFile) printTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tn\tq1\tq3\t")
	row := func(name string, m metric) {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%d\t%.6g\t%.6g\t\n", name, m.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
	for _, r := range rf.Workloads {
		row(r.Name, exact("rounds", fmt.Sprintf("x%d cells", r.CellsPerRound), float64(r.Rounds), r.Rounds))
		for _, m := range append(append([]metric(nil), r.EndToEnd...), r.failRatio()) {
			row(r.Name, m)
		}
		for _, m := range append(append([]metric(nil), r.Layers...), r.Extra...) {
			row(r.Name, m)
		}
	}
	for _, m := range rf.Probes {
		row("probes", m)
	}
	tw.Flush()
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output. Untraced, its metrics
// are the end-to-end ones; traced, the per-layer ones every workload
// reports plus the probes. With several workloads, names are prefixed
// with the workload's.
func (rf *runFile) resultLine() any {
	metrics := make(map[string]lineMetric)
	attempted, failed := 0, 0
	for _, r := range rf.Workloads {
		attempted += r.Attempted
		failed += r.Failed
		ms := r.EndToEnd
		if rf.Meta.Traced {
			ms = append(append([]metric(nil), r.Layers...), rf.Probes...)
		}
		for _, m := range ms {
			key := m.Name
			if len(rf.Workloads) > 1 {
				key = r.Name + "/" + m.Name
			}
			metrics[key] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{rf.correct(), attempted, failed, metrics}
}
