package main

import (
	"math"
	"sort"
	"time"
)

// epoch anchors every timestamp the benchmark takes: nanoseconds on the
// monotonic clock since process start, so spans from all goroutines
// share one axis.
var epoch = time.Now()

// now returns the monotonic time since epoch in nanoseconds.
func now() int64 { return int64(time.Since(epoch)) }

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; xs is sorted in place. An empty
// input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// msOf converts nanoseconds to milliseconds.
func msOf(ns int64) float64 { return float64(ns) / 1e6 }
