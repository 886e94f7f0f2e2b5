package exp

import (
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"
)

// FuzzAxes drives the axis grammar, plus cmd/sweep's -faults, with
// arbitrary command lines (one argument per line). Parsing must never
// panic, and every experiment of an accepted sweep must fingerprint and
// keep its fingerprint through a JSON round trip, the path a cell takes
// to a fleet worker and back.
func FuzzAxes(f *testing.F) {
	for _, args := range [][]string{
		{},
		{"-impls", "mpi", "-tunings", "default,tcp,mpi,full,multilevel", "-topo", "grid,cluster,rennes:2+nancy:1",
			"-placement", "round-robin", "-workload", "pattern:gather"},
		{"-workload", "npb:all", "-nodes", "8", "-scale", "0.05"},
		{"-workload", "ray2mesh:rennes,sophia", "-placement", "master:nancy"},
		{"-workload", "trace", "-size", "64k", "-reps", "3"},
		// The inputs of bugs the grammar now refuses: a scale or loss
		// that cannot be fingerprinted, a negative scale, a size grid
		// that overflowed or came out empty, arguments that were
		// dropped, and values listed twice.
		{"-workload", "npb:CG", "-scale", "NaN"},
		{"-workload", "npb:CG", "-scale", "Inf"},
		{"-workload", "npb:CG", "-scale", "-1"},
		{"-faults", "0s loss NaN"},
		{"-max-size", "4611686018427387904"},
		{"-max-size", "9223372036854775807"},
		{"-max-size", "512"},
		{"-workload", "pingpong:bogus"},
		{"-workload", "trace:bogus"},
		{"-impls", "GridMPI,GridMPI", "-tunings", "full,full"},
	} {
		f.Add(strings.Join(args, "\n"))
	}
	f.Fuzz(func(t *testing.T, cmdline string) {
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		axes := Axes{Impls: "all", Tunings: "default,tcp,full", Nodes: 1, Workload: "pingpong",
			Reps: 50, Size: "1M", Iters: 10, Scale: 0.1, MaxSize: "64M"}
		axes.Register(fs)
		faults := fs.String("faults", "", "")
		if fs.Parse(strings.Split(cmdline, "\n")) != nil {
			return
		}
		sweep, err := axes.Sweep()
		if err != nil {
			return
		}
		plan, err := ParseFaultPlan(*faults)
		if err != nil {
			return
		}
		for _, e := range sweep.Experiments() {
			e.Faults = plan
			fp := e.Fingerprint()
			blob, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			var back Experiment
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if got := back.Fingerprint(); got != fp {
				t.Fatalf("%s: fingerprint %s after a JSON round trip, was %s", e.Name(), got, fp)
			}
		}
	})
}
