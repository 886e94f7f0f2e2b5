package main

import (
	"strings"
	"testing"
)

// TestRunSmoke drives one tiny end-to-end experiment through the CLI
// entrypoint and checks the human-readable report.
func TestRunSmoke(t *testing.T) {
	var out, errOut strings.Builder
	err := run([]string{
		"-impl", "GridMPI", "-nodes", "2", "-grid",
		"-pattern", "ring", "-size", "64k", "-iters", "2",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"GridMPI, 4 ranks", "pattern=ring size=65536 iters=2", "elapsed (virtual):", "census:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunJSON checks the machine-readable path.
func TestRunJSON(t *testing.T) {
	var out, errOut strings.Builder
	err := run([]string{"-impl", "MPICH2", "-nodes", "2", "-grid=false",
		"-pattern", "barrier", "-size", "1k", "-iters", "1", "-json"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{`"impl": "MPICH2"`, `"kind": "pattern"`, `"census"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("JSON missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunBadFlags covers the error paths: invalid size and unknown
// pattern.
func TestRunBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	for _, size := range []string{"12q", "-4k"} {
		if err := run([]string{"-size", size, "-pattern", "bcast"}, &out, &errOut); err == nil {
			t.Errorf("-size %s accepted", size)
		}
	}
	if err := run([]string{"-pattern", "nope", "-nodes", "1"}, &out, &errOut); err == nil {
		t.Error("unknown pattern accepted")
	}
	if err := run([]string{"-impl", "LAM/MPI"}, &out, &errOut); err == nil {
		t.Error("unknown implementation accepted")
	}
	if err := run([]string{"-sites", "paris:4"}, &out, &errOut); err == nil {
		t.Error("unknown site accepted")
	}
	if err := run([]string{"-placement", "scatter"}, &out, &errOut); err == nil {
		t.Error("unknown placement accepted")
	}
	if err := run([]string{"-placement", "master:sophia"}, &out, &errOut); err == nil {
		t.Error("master outside the layout accepted")
	}
}

// TestRunAsymmetricSites drives a per-site layout with a placement
// policy through the CLI.
func TestRunAsymmetricSites(t *testing.T) {
	var out, errOut strings.Builder
	err := run([]string{
		"-impl", "GridMPI", "-sites", "rennes:2+nancy:1+sophia:1",
		"-placement", "master:sophia",
		"-pattern", "bcast", "-size", "32k", "-iters", "2",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "GridMPI, 4 ranks") {
		t.Errorf("output missing the 4-rank asymmetric header:\n%s", out.String())
	}
}
