package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// specPath is the benchmark definition -compare takes its bounds from,
// relative to the repository root.
const specPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	blob, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(blob, &spec)
	}
	if err != nil {
		return spec, fmt.Errorf("benchmark spec: %w", err)
	}
	return spec, nil
}

// failRatioSpec holds fail_ratio to "any increase is worse".
var failRatioSpec = specMetric{Name: "fail_ratio", Better: "lower"}

// compareMain reads -out files of two sides, base before "--" and head
// after it, pairs them in order, and prints one row per workload and
// end-to-end metric. It exits 1 when any row is worse or unresolved.
func compareMain(args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "bench: usage: -compare base.json... -- head.json...")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	base, err := loadRuns(args[:sep])
	if err == nil {
		var head []runFile
		if head, err = loadRuns(args[sep+1:]); err == nil {
			return printComparison(stdout, stderr, append(spec.EndToEnd, failRatioSpec), base, head)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 1
}

func loadRuns(paths []string) ([]runFile, error) {
	runs := make([]runFile, len(paths))
	for i, p := range paths {
		blob, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(blob, &runs[i])
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return runs, nil
}

// values collects one metric of one workload across runs.
func values(runs []runFile, workload, name string) []float64 {
	var xs []float64
	for _, rf := range runs {
		for _, r := range rf.Workloads {
			if r.Name != workload {
				continue
			}
			if name == failRatioSpec.Name {
				xs = append(xs, r.failRatio().Value)
			}
			for _, m := range r.EndToEnd {
				if m.Name == name {
					xs = append(xs, m.Value)
				}
			}
		}
	}
	return xs
}

func printComparison(stdout, stderr io.Writer, specs []specMetric, base, head []runFile) int {
	if base[0].Meta.Seed != head[0].Meta.Seed || base[0].Meta.Seconds != head[0].Meta.Seconds {
		fmt.Fprintln(stderr, "bench: warning: the two sides ran with different -seed or -seconds")
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\twins\tverdict")
	bad := false
	for _, r := range head[0].Workloads {
		for _, sm := range specs {
			b, h := values(base, r.Name, sm.Name), values(head, r.Name, sm.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v, wins, pairs := verdict(b, h, sm.Better == "lower", sm.Bound)
			bad = bad || v == "worse" || v == "unresolved"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%s\n", r.Name, sm.Name, summary(b), summary(h), wins, pairs, v)
		}
	}
	tw.Flush()
	if bad {
		return 1
	}
	return 0
}

func summary(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", m, q1, q3)
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

// verdict applies the measurement rules: a metric whose base-side
// quartile spread exceeds its bound is unresolved (unless every head run
// beats every base run); one whose head median is worse than the base
// median by more than the bound is worse; a gain needs at least minPairs
// pairs, 9 in 10 of them won, and a median gap wider than the base
// side's spread.
func verdict(base, head []float64, lower bool, bound float64) (v string, wins, pairs int) {
	better := func(a, b float64) bool {
		if lower {
			return a < b
		}
		return a > b
	}
	pairs = min(len(base), len(head))
	for i := range pairs {
		if better(head[i], base[i]) {
			wins++
		}
	}
	q1, mb, q3 := quartiles(base)
	_, mh, _ := quartiles(head)
	spread := q3 - q1
	share := func(d float64) float64 {
		switch {
		case d <= 0:
			return 0
		case mb == 0:
			return math.Inf(1)
		}
		return d / math.Abs(mb)
	}
	worsening := mh - mb
	if !lower {
		worsening = -worsening
	}
	worstHead, bestBase := slices.Max(head), slices.Min(base)
	if !lower {
		worstHead, bestBase = slices.Min(head), slices.Max(base)
	}
	switch {
	case share(spread) > bound && !better(worstHead, bestBase):
		return "unresolved", wins, pairs
	case share(worsening) > bound:
		return "worse", wins, pairs
	case pairs >= minPairs && wins*10 >= 9*pairs && better(mh, mb) && math.Abs(mh-mb) > spread:
		return "better", wins, pairs
	}
	return "same", wins, pairs
}
