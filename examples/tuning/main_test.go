package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStdoutMatchesGolden locks the example's output byte for byte to
// testdata/stdout.golden.
func TestStdoutMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("stdout diverged from testdata/stdout.golden\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}
