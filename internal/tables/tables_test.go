package tables

import (
	"strings"
	"testing"
)

func TestRenderAlignsColumns(t *testing.T) {
	out := Render(
		[]string{"name", "value"},
		[][]string{{"a", "1"}, {"longer-name", "22"}},
	)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want header+sep+2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("separator missing: %q", lines[1])
	}
	// All rows share the first column width.
	col := strings.Index(lines[0], "value")
	if strings.Index(lines[3], "22") != col {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	out, err := CSV(
		[]string{"impl", "note"},
		[][]string{{"GridMPI", "pacing, collectives"}, {"MPICH2", "plain"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := "impl,note\nGridMPI,\"pacing, collectives\"\nMPICH2,plain\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}

func TestSize(t *testing.T) {
	cases := map[int64]string{
		64:       "64 B",
		1024:     "1 kB",
		147456:   "144 kB",
		1 << 20:  "1 MB",
		64 << 20: "64 MB",
		3 << 19:  "1536 kB", // not a whole MB
	}
	for in, want := range cases {
		if got := Size(in); got != want {
			t.Errorf("Size(%d) = %q, want %q", in, got, want)
		}
	}
}
