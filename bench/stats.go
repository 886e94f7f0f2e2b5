package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: with fewer, the "p99" is one or two outliers, not a
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (the
// ceil(p/100·n)-th smallest sample), refusing one with fewer than
// minBeyond samples above it.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := max(int(math.Ceil(p/100*float64(len(s)))), 1)
	if beyond := len(s) - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, len(s), beyond, minBeyond)
	}
	return s[rank-1], nil
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" default), so spreads read the same here and in any script
// that re-derives them from the output JSON. One sample is its own
// quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// metric is one reported number: its value, unit, how many samples
// stand behind it, and their quartiles (equal to the value for exact
// counts and single measurements).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// sampled summarizes samples by their median.
func sampled(name, unit string, xs []float64) metric {
	q1, m, q3 := quartiles(xs)
	return metric{Name: name, Value: m, Unit: unit, N: len(xs), Q1: q1, Q3: q3}
}

// exact is a single value: a count, a ratio of counts, or one timed loop.
func exact(name, unit string, v float64, n int) metric {
	return metric{Name: name, Value: v, Unit: unit, N: n, Q1: v, Q3: v}
}
