package main

import (
	"math"
	"sort"
)

// tailQuantile is the latency percentile reported beside the median,
// and tailSamples how many samples must lie beyond it for the
// percentile to describe a tail rather than a single outlier.
const (
	tailQuantile = 0.90
	tailSamples  = 10
)

// rankOf is the 1-based nearest-rank position of quantile q in n sorted
// samples: the smallest rank whose share of samples at or below it
// reaches q.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples that lie strictly past the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int { return n - rankOf(n, q) }

// minSamples is the smallest sample count with at least tail samples
// beyond the q-quantile: 100 for p90 with a tail of ten.
func minSamples(q float64, tail int) int {
	n := 1
	for beyond(n, q) < tail {
		n++
	}
	return n
}

// quantile returns the nearest-rank q-quantile of xs, which it sorts in
// place. It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rankOf(len(xs), q)-1]
}

// median returns the middle of xs (the mean of the two middle values
// for an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
