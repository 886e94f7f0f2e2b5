package main

import (
	"errors"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestRunSmoke drives tiny end-to-end experiments through the CLI
// entrypoint and checks the human-readable report: the default tuning,
// the multilevel level, and every pattern the grammar names.
func TestRunSmoke(t *testing.T) {
	cases := [][]string{
		{"-impls", "GridMPI", "-nodes", "2", "-workload", "pattern:ring", "-size", "64k", "-iters", "2"},
		{"-tunings", "multilevel", "-topo", "rennes:2+nancy:1+sophia:1", "-workload", "pattern:gather", "-size", "4k", "-iters", "1"},
		{"-impls", "MPICH2", "-tunings", "mpi", "-topo", "rennes:4", "-workload", "pattern:ring", "-size", "64k", "-iters", "1"},
	}
	wants := [][]string{
		{"GridMPI/fully-tuned/rennes+nancy x2/ring[65536B x2]", "elapsed (virtual):", "census:"},
		{"GridMPI/multilevel/rennes:2+nancy:1+sophia:1/gather[4096B x1]", "collective gather       x 1"},
		{"MPICH2/mpi-tuned/rennes x4/ring[65536B x1]"},
	}
	for _, p := range exp.Patterns {
		cases = append(cases, []string{"-nodes", "1", "-workload", "pattern:" + p, "-size", "1k", "-iters", "1"})
		wants = append(wants, []string{"/" + p + "[1024B x1]", "elapsed (virtual):"})
	}
	for i, args := range cases {
		var out, errOut strings.Builder
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, errOut.String())
		}
		for _, want := range wants[i] {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%v: output missing %q:\n%s", args, want, out.String())
			}
		}
	}
}

// TestRunJSON checks the machine-readable path.
func TestRunJSON(t *testing.T) {
	var out, errOut strings.Builder
	err := run([]string{"-impls", "MPICH2", "-topo", "rennes:2",
		"-workload", "pattern:barrier", "-size", "1k", "-iters", "1", "-json"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{`"impl": "MPICH2"`, `"kind": "pattern"`, `"census"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("JSON missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunBadFlags covers the error paths. Each is a usage error (exit 2),
// never a run failure (exit 1): bad values, axes naming more than one
// experiment, a budget on a workload that has none, and the flags the
// axis grammar replaced.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-size", "12q", "-workload", "pattern:bcast"},
		{"-size", "-4k", "-workload", "pattern:bcast"},
		{"-workload", "pattern:nope", "-nodes", "1"},
		{"-impls", "LAM/MPI"},
		{"-topo", "paris:4"},
		{"-placement", "scatter"},
		{"-placement", "master:sophia"},
		{"-impls", "mpi"}, // four experiments
		{"-tunings", "tcp,full"},
		{"-workload", "npb:all"},
		{"-workload", "pingpong", "-timeout", "1s"},
		{"-impl", "GridMPI"},
		{"-grid=false"},
		{"-sites", "rennes:4"},
		{"-pattern", "ring"},
		{"-tcp-tuned=false"},
		{"-mpi-tuned=false"},
		// A pattern without an iteration, and an NPB scale past class B.
		{"-nodes", "1", "-size", "1k", "-iters", "0"},
		{"-nodes", "1", "-size", "1k", "-iters", "-1"},
		{"-workload", "npb:EP", "-scale", "3"},
		// Cells the runner would refuse: a pingpong with no size or on
		// one node, and a trace without a message.
		{"-workload", "pingpong", "-max-size", "512"},
		{"-workload", "pingpong", "-max-size", "1k", "-topo", "rennes:1"},
		{"-workload", "trace", "-size", "1k", "-reps", "0"},
	} {
		var out, errOut strings.Builder
		if err := run(args, &out, &errOut); err == nil || errors.Is(err, errRunFailed) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
	}
}

// TestRunAsymmetricSites drives a per-site layout with a placement
// policy through the CLI.
func TestRunAsymmetricSites(t *testing.T) {
	var out, errOut strings.Builder
	err := run([]string{
		"-impls", "GridMPI", "-topo", "rennes:2+nancy:1+sophia:1",
		"-placement", "master:sophia",
		"-workload", "pattern:bcast", "-size", "32k", "-iters", "2",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "GridMPI/fully-tuned/rennes:2+nancy:1+sophia:1 place=master:sophia/") {
		t.Errorf("output missing the 4-rank asymmetric header:\n%s", out.String())
	}
}

// TestCellSharedWithSweep: one cell run by gridsim and then by cmd/sweep
// with the same axes on one -cache directory is one cache entry, so
// sweep computes nothing.
func TestCellSharedWithSweep(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("needs the go command to run cmd/sweep")
	}
	dir := t.TempDir()
	axes := []string{"-impls", "GridMPI", "-tunings", "full", "-nodes", "2",
		"-workload", "pattern:allreduce", "-size", "4k", "-iters", "2", "-cache", dir}
	var out, errOut strings.Builder
	if err := run(axes, &out, &errOut); err != nil {
		t.Fatalf("gridsim: %v\n%s", err, errOut.String())
	}
	sweep := exec.Command(goTool, append([]string{"run", "../sweep"}, axes...)...)
	var stderr strings.Builder
	sweep.Stderr = &stderr
	if err := sweep.Run(); err != nil {
		t.Fatalf("sweep: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cache: 0 computed, 1 from disk") {
		t.Errorf("sweep recomputed gridsim's cell:\n%s", stderr.String())
	}
}
