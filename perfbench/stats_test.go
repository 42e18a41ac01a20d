package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.9, 37},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSampleCountRule(t *testing.T) {
	if got := samplesFor(0.9); got != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", got)
	}
	if got := samplesFor(0.5); got != 20 {
		t.Errorf("samplesFor(0.5) = %d, want 20", got)
	}
	if supported(99, 0.9) || !supported(100, 0.9) {
		t.Error("p90 must need exactly 100 samples")
	}
	if !supported(20, 0.5) || supported(19, 0.5) {
		t.Error("p50 must need exactly 20 samples")
	}
}
