package repro

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
)

var updateTrace = flag.Bool("update-trace", false, "rewrite the testdata/event_order*.golden files of the selected tests")

// traceEvents runs fn with a tracer on every kernel it creates, writing
// each executed event to w as "<time> <seq>\n".
func traceEvents(w io.Writer, fn func()) {
	sim.NewHook = func(k *sim.Kernel) {
		k.SetTracer(func(at sim.Time, seq uint64) {
			fmt.Fprintf(w, "%d %d\n", int64(at), seq)
		})
	}
	defer func() { sim.NewHook = nil }()
	fn()
}

// traceExperiments records the executed event stream of each experiment
// between a "# <name>" header and an "= elapsed <ns>" trailer.
func traceExperiments(t *testing.T, exps []exp.Experiment) []byte {
	t.Helper()
	var buf bytes.Buffer
	traceEvents(&buf, func() {
		for _, e := range exps {
			fmt.Fprintf(&buf, "# %s\n", e.Name())
			res := exp.Run(e)
			if res.Err != "" {
				t.Fatalf("%s: %s", e.Name(), res.Err)
			}
			if res.DNF {
				t.Fatalf("%s: did not finish", e.Name())
			}
			fmt.Fprintf(&buf, "= elapsed %d\n", int64(res.Elapsed))
		}
	})
	return buf.Bytes()
}

// checkGolden compares got byte-exactly with testdata/<name> and reports
// the first diverging line. With -update-trace it rewrites the file
// instead; regenerate only for a deliberate semantic change.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateTrace {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d bytes, %d lines", golden, len(got), bytes.Count(got, []byte("\n")))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (generate with -update-trace): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s diverged at line %d:\n  got  %q\n  want %q", name, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s length changed: got %d lines, want %d", name, len(gotLines), len(wantLines))
}
