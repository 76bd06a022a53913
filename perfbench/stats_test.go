package main

import (
	"testing"
	"time"

	"ooc/internal/testutil"
)

func samples(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(i+1) * time.Microsecond
	}
	return s
}

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile
// is reported only with at least ten samples beyond it, so a p99
// needs 1 000 samples.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, ok := percentile(samples(999), 0.99); ok {
		t.Error("p99 of 999 samples reported; only 9 lie beyond it")
	}
	v, ok := percentile(samples(1000), 0.99)
	if !ok || v != 990*time.Microsecond {
		t.Errorf("p99 of 1..1000 µs = %v, %v; want 990µs, true", v, ok)
	}
	if _, ok := percentile(samples(19), 0.5); ok {
		t.Error("p50 of 19 samples reported; only 9 lie beyond it")
	}
	if v, ok := percentile(samples(20), 0.5); !ok || v != 10*time.Microsecond {
		t.Errorf("p50 of 1..20 µs = %v, %v; want 10µs, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); !testutil.ApproxEqual(m, 2, 0) {
		t.Errorf("median(3,1,2) = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); !testutil.ApproxEqual(m, 2.5, 0) {
		t.Errorf("median(4,1,3,2) = %g", m)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 11}
	if q := quantile(xs, slowSlices); !testutil.ApproxEqual(q, 2, 0) {
		t.Errorf("10th percentile of 1..11 = %g, want 2", q)
	}
	if q := quantile(xs, 1-slowSlices); !testutil.ApproxEqual(q, 10, 0) {
		t.Errorf("90th percentile of 1..11 = %g, want 10", q)
	}
}
