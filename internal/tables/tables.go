// Package tables renders aligned ASCII tables and gnuplot-style data
// series for the command-line tools and EXPERIMENTS.md generation.
package tables

import (
	"encoding/csv"
	"fmt"
	"strings"
)

// Render formats a header row and data rows as an aligned text table.
func Render(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// CSV formats a header row and data rows as RFC 4180 CSV (the sweep
// engine's machine-readable output).
func CSV(headers []string, rows [][]string) (string, error) {
	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.Write(headers); err != nil {
		return "", err
	}
	if err := w.WriteAll(rows); err != nil {
		return "", err
	}
	w.Flush()
	return b.String(), w.Error()
}

// Size formats a byte count compactly (B, kB, MB).
func Size(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%d MB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%d kB", n>>10)
	default:
		return fmt.Sprintf("%d B", n)
	}
}
