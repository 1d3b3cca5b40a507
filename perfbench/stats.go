package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p95 from fewer than 200 samples rests on fewer than ten observations.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the p-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method of Python's statistics.quantiles),
// or 0 for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beyond returns how many of n sorted samples rank strictly above the
// interpolated p-quantile's position.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(p*float64(n-1)))
}

// percentileHolds reports whether n samples support the p-quantile under
// the rule that at least minBeyond samples lie beyond it.
func percentileHolds(n int, p float64) bool {
	return beyond(n, p) >= minBeyond
}

// samplesFor returns the fewest samples for which the p-quantile holds.
func samplesFor(p float64) int {
	n := 1
	for !percentileHolds(n, p) {
		n++
	}
	return n
}

// residual is the derived self time of the record layer: the instrumented
// share of a run (instrumented minus uninstrumented wall time) minus what
// the other measured layers account for inside it.
func residual(instrumented, plain float64, parts ...float64) float64 {
	r := instrumented - plain
	for _, p := range parts {
		r -= p
	}
	return r
}
