package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyArgs shrinks every axis of the quick mode further so whole-paper
// regeneration fits in a unit test; the shapes don't matter here, only
// determinism and cache behaviour.
var tinyArgs = []string{"-quick", "-reps", "2", "-nas-scale", "0.02", "-ray-scale", "0.02", "-trace", "10"}

func regen(t *testing.T, extra ...string) (string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(append(append([]string{}, tinyArgs...), extra...), &out, &errOut); err != nil {
		t.Fatalf("run %v: %v\nstderr: %s", extra, err, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestParallelMatchesSequentialAndCacheServesSecondRun is the command's
// contract: -workers N output is byte-identical to -workers 1, and an
// immediately repeated invocation against the same cache directory
// recomputes nothing.
func TestParallelMatchesSequentialAndCacheServesSecondRun(t *testing.T) {
	dir := t.TempDir()
	seq, _ := regen(t, "-workers", "1")
	par, parErr := regen(t, "-workers", "4", "-cache", dir)
	if seq != par {
		t.Fatal("-workers 4 output differs from -workers 1")
	}
	if !strings.Contains(parErr, " 0 from disk") {
		t.Errorf("first cached run should find an empty store: %s", parErr)
	}

	again, againErr := regen(t, "-workers", "4", "-cache", dir)
	if again != par {
		t.Fatal("second run against the cache produced different output")
	}
	if !strings.HasPrefix(againErr, "cache: 0 computed") {
		t.Errorf("second run recomputed cells: %s", againErr)
	}
	if !strings.Contains(againErr, "from disk") || strings.Contains(againErr, " 0 from disk") {
		t.Errorf("second run did not load from disk: %s", againErr)
	}
}

// TestStdoutMatchesPrePRGolden pins the whole-paper stdout to the bytes
// the command produced before the Topology/Placement API redesign
// (testdata/quick_tiny.golden was captured from the pre-redesign code):
// the redesign must not move a single byte of the reproduction.
func TestStdoutMatchesPrePRGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "quick_tiny.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := regen(t, "-workers", "8")
	if out != string(golden) {
		t.Errorf("stdout diverged from the pre-redesign golden (%d bytes vs %d)", len(out), len(golden))
	}
}

// sectionNames are the sections gridrepro prints by default, in print
// order: the names it accepts without -faults or -multilevel.
var sectionNames = []string{
	"table1", "table2", "table4", "figure5", "figure3", "figure6", "table5",
	"figure7", "figure9", "figure10", "figure11", "figure12", "figure13",
	"table6", "table7", "extension-g2", "extension-het", "buffer-sweep",
}

const header = "=== Reproduction of: Comparison and tuning of MPI implementations in a grid context (Hablot et al., 2007) ===\n\n"

// TestSectionsByName: each section named alone prints the header and
// exactly that section's bytes of the golden, and the sections in order
// rebuild the golden. Named sections print in paper order, once each.
func TestSectionsByName(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "quick_tiny.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bodies := make(map[string]string)
	rebuilt := header
	for _, name := range sectionNames {
		out, _ := regen(t, "-cache", dir, name)
		body, ok := strings.CutPrefix(out, header)
		if !ok || body == "" || !strings.HasPrefix(string(golden[len(rebuilt):]), body) {
			t.Fatalf("section %s is not the golden's next section:\n%s", name, out)
		}
		bodies[name] = body
		rebuilt += body
	}
	if rebuilt != string(golden) {
		t.Errorf("the sections rebuild %d bytes of the %d-byte golden", len(rebuilt), len(golden))
	}

	out, _ := regen(t, "-cache", dir, "table7", "figure3", "table7", "table1")
	if want := header + bodies["table1"] + bodies["figure3"] + bodies["table7"]; out != want {
		t.Errorf("table7 figure3 table7 table1 printed:\n%s\nwant:\n%s", out, want)
	}
}

// TestFaultsAppendReliabilitySection: -faults tacks the reliability matrix
// onto the end of the regeneration without moving a byte of the paper's
// own sections — the pre-PR golden must remain an exact prefix.
func TestFaultsAppendReliabilitySection(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "quick_tiny.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := regen(t, "-workers", "8",
		"-faults", "seed=7; 20ms down site=rennes; 120ms up site=rennes; 0s loss 0.02")
	if !strings.HasPrefix(out, string(golden)) {
		t.Fatal("-faults disturbed the paper sections preceding the reliability matrix")
	}
	tail := out[len(golden):]
	for _, want := range []string{"Reliability: the paper's matrix under faults", "seed=7", "kept", "retrans"} {
		if !strings.Contains(tail, want) {
			t.Errorf("reliability section missing %q:\n%s", want, tail)
		}
	}
}

// TestMultilevelAppendsExtensionSection: -multilevel tacks the
// flat-vs-multilevel collectives table onto the end of the regeneration
// without moving a byte of the paper's own sections.
func TestMultilevelAppendsExtensionSection(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "quick_tiny.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := regen(t, "-workers", "8", "-multilevel")
	if !strings.HasPrefix(out, string(golden)) {
		t.Fatal("-multilevel disturbed the paper sections preceding the extension table")
	}
	tail := out[len(golden):]
	for _, want := range []string{"flat vs multilevel collectives", "multilevel", "speedup", "alltoall", "rennes:4+nancy:2+sophia:1+toulouse:1"} {
		if !strings.Contains(tail, want) {
			t.Errorf("multilevel section missing %q:\n%s", want, tail)
		}
	}
}

// TestBadInvocations: a bad invocation is a usage error (exit 2),
// refused before any side effect. Each refused run asks for a CPU and a
// heap profile in a fresh directory, and neither file may appear.
func TestBadInvocations(t *testing.T) {
	var out, errOut bytes.Buffer
	refused := func(args ...string) {
		t.Helper()
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
		args = append([]string{"-cpuprofile", cpu, "-memprofile", mem}, args...)
		errOut.Reset()
		if err := run(args, &out, &errOut); !errors.Is(err, errFlagParse) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
		for _, p := range []string{cpu, mem} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("%v: the refused run wrote %s", args, filepath.Base(p))
			}
		}
	}
	refused("-bogus")
	refused("-faults", "1s frobnicate site=rennes")
	refused("-faults", "garbage")
	// The cache maintenance flags need a cache, an eviction policy must
	// parse, and the cache and the store must open.
	refused("-cache-verify", "0.5")
	refused("-cache-evict", "720h")
	refused("-cache", t.TempDir(), "-cache-evict", "bogus")
	refused("-cache-remote", "bogus", "table1")
	refused("-cache", "\x00impossible/dir", "table1")
	// The store's URL is parsed before its directory is made.
	cache := filepath.Join(t.TempDir(), "cache")
	refused("-cache", cache, "-cache-remote", "bogus", "table1")
	if _, err := os.Stat(cache); !os.IsNotExist(err) {
		t.Error("-cache-remote bogus: the refused run created its cache directory")
	}
	// A profile that cannot be created is refused before any section
	// runs and before the cache directory is made.
	refused("-cache", cache, "-memprofile", filepath.Join(t.TempDir(), "missing", "m.prof"), "table1")
	if _, err := os.Stat(cache); !os.IsNotExist(err) {
		t.Error("-memprofile in a missing directory: the refused run created its cache directory")
	}
	// An unknown section name is a usage error that lists the valid
	// names; reliability and multilevel need their flags.
	for _, args := range [][]string{{"extra"}, {"table3"}, {"table1", "reliability"}, {"multilevel"}} {
		refused(args...)
		if !strings.Contains(errOut.String(), "unknown section") || !strings.Contains(errOut.String(), "buffer-sweep") {
			t.Errorf("%v: stderr does not list the sections: %s", args, errOut.String())
		}
	}
	// A scale, count or fraction no run can take is refused too, and the
	// cache directory is not created. NaN and infinity cannot be
	// fingerprinted, NPB's largest class is scale 1, a negative count is
	// not the per-mode default, and a -cache-verify fraction outside
	// [0, 1] samples nothing.
	for _, args := range [][]string{
		{"-nas-scale", "Inf"}, {"-nas-scale", "NaN"}, {"-nas-scale", "-1"}, {"-nas-scale", "3"},
		{"-ray-scale", "Inf"}, {"-ray-scale", "NaN"}, {"-ray-scale", "-1"},
		{"-reps", "-3"}, {"-trace", "-5"},
		{"-cache-verify", "NaN"}, {"-cache-verify", "Inf"}, {"-cache-verify", "-0.5"}, {"-cache-verify", "1.5"},
	} {
		cache := filepath.Join(t.TempDir(), "cache")
		refused(append([]string{"-quick", "-cache", cache}, append(args, "table2", "table6")...)...)
		if _, err := os.Stat(cache); !os.IsNotExist(err) {
			t.Errorf("%v: the refused run created its cache directory", args)
		}
	}
}

// TestCacheVerifyMode populates a cache with a tiny regeneration, then
// exercises the -cache-verify maintenance mode: a clean cache verifies
// silently and then takes its eviction bound, a tampered entry fails the
// run with a mismatch report.
func TestCacheVerifyMode(t *testing.T) {
	dir := t.TempDir()
	regen(t, "-cache", dir)

	var out, errOut bytes.Buffer
	if err := run([]string{"-cache", dir, "-cache-verify", "0.25", "-workers", "4", "-cache-evict", "720h"}, &out, &errOut); err != nil {
		t.Fatalf("verify of a fresh cache failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 mismatched") {
		t.Fatalf("unexpected verify report: %s", out.String())
	}
	if !strings.HasPrefix(errOut.String(), "cache evict: removed 0 of ") {
		t.Errorf("the verify pass skipped its eviction bound: %s", errOut.String())
	}

	// Tamper with one entry's measurement (keeping its experiment, and so
	// its fingerprint, intact) and verify everything: the run must fail.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mod := strings.Replace(string(blob), `"elapsed": `, `"elapsed": 9`, 1)
		if mod == string(blob) {
			continue
		}
		if err := os.WriteFile(path, []byte(mod), 0o644); err != nil {
			t.Fatal(err)
		}
		tampered = true
		break
	}
	if !tampered {
		t.Fatal("no entry could be tampered with")
	}
	out.Reset()
	if err := run([]string{"-cache", dir, "-cache-verify", "1", "-workers", "4"}, &out, &errOut); err == nil {
		t.Fatalf("verify of a tampered cache passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "MISMATCH") {
		t.Fatalf("report does not name the mismatch: %s", out.String())
	}
}

// TestProfileFlags smokes the -cpuprofile/-memprofile wiring: the files
// must exist and be non-empty after a run.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("profile wiring only; covered by the full suite")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	regen(t, "-cpuprofile", cpu, "-memprofile", mem)
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
