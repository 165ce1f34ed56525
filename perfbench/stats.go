package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the least number of samples that must lie above a
// reported percentile: a tail figure resting on fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// a non-empty sample.
func percentile(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile is percentile for a reported tail: it refuses when
// fewer than minBeyond samples lie above the p-th percentile.
func tailPercentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n < minSamplesFor(p) {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", p, n, minBeyond)
	}
	return percentile(samples, p), nil
}

// minSamplesFor is the smallest sample count whose p-th percentile has
// minBeyond samples above it.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n)/100)) >= minBeyond {
			return n
		}
	}
}

// median of a non-empty slice (the mean of the middle two when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
