package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the sample-count rule: a percentile is reported only when
// at least this many samples lie beyond it, so p90 needs 100 samples.
const minBeyond = 10

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty slice yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// supported reports whether n samples carry the q-quantile under the
// sample-count rule.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// samplesFor is the smallest sample count that supports the q-quantile.
func samplesFor(q float64) int {
	return int(math.Ceil(minBeyond/(1-q) - 1e-9))
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
