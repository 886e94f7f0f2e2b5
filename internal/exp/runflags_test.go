package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mpiimpl"
)

// TestRunFlagsOpenRefusesBeforeCreating: a bound without a cache, a
// malformed bound, a malformed server URL and a profile file that cannot
// be created are refused before the cache directory or a profile exists.
func TestRunFlagsOpenRefusesBeforeCreating(t *testing.T) {
	dir := t.TempDir()
	cache, cpu, mem := filepath.Join(dir, "cache"), filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	unwritable := filepath.Join(dir, "missing", "x.prof")
	for _, f := range []RunFlags{
		{Evict: "720h"},
		{Cache: cache, Evict: "bogus"},
		{Cache: cache, Remote: "bogus"},
		{Cache: cache, Remote: "ftp://host:1"},
		// A profile that cannot be created is refused before the cache
		// directory is made.
		{Cache: cache, CPUProfile: unwritable},
		{Cache: cache, MemProfile: unwritable},
	} {
		if f.CPUProfile == "" {
			f.CPUProfile = cpu
		}
		if f.MemProfile == "" {
			f.MemProfile = mem
		}
		if _, err := f.Open(); err == nil {
			t.Errorf("%+v opened", f)
		}
		for _, p := range []string{cache, cpu, mem} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("%+v: the refused Open created %s", f, filepath.Base(p))
				os.RemoveAll(p)
			}
		}
	}
}

// TestSessionCloseReportsLostWrites: a result the cache directory can
// no longer take is still served, and Close warns that it was lost
// after the cache line.
func TestSessionCloseReportsLostWrites(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	sess, err := RunFlags{Workers: 1, Cache: dir}.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if res := sess.Runner.Run(tinyPingPong(mpiimpl.RawTCP, Tuning{})); res.Err != "" {
		t.Fatalf("run: %s", res.Err)
	}
	var w strings.Builder
	if err := sess.Close(&w); err != nil {
		t.Fatal(err)
	}
	want := "cache: 1 computed, 0 from disk, 0 from memory (1 distinct experiments)\n" +
		"warning: 1 results could not be written to the disk cache\n"
	if w.String() != want {
		t.Errorf("Close reported:\n%s\nwant:\n%s", w.String(), want)
	}
}

// TestSessionCloseQuietWhenNothingRan: a session whose runner served
// nothing reports nothing, and still applies its eviction bound.
func TestSessionCloseQuietWhenNothingRan(t *testing.T) {
	sess, err := RunFlags{Cache: t.TempDir(), Evict: "720h"}.Open()
	if err != nil {
		t.Fatal(err)
	}
	var w strings.Builder
	if err := sess.Close(&w); err != nil {
		t.Fatal(err)
	}
	if want := "cache evict: removed 0 of 0 entries (0 bytes), 0 bytes remain\n"; w.String() != want {
		t.Errorf("Close reported %q, want %q", w.String(), want)
	}
}
