package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported
// percentile: a p99 needs at least 1 000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted samples,
// and false when fewer than minBeyond samples lie beyond it.
func percentile(sorted []time.Duration, q float64) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	rank = min(max(rank, 1), n)
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// median of xs (the mean of the middle two for an even count); xs is
// reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// slowSlices is the share of slices at the slow end whose edge gives
// a run's throughput and p50.
const slowSlices = 0.1

// quantile returns the element of xs at rank q·(n−1), rounded down, in
// ascending order; xs is reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[int(q*float64(len(xs)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
