package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least a fraction p of the samples at or below it.
// It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the 0-based index of the nearest-rank p-quantile among n sorted
// samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n))) - 1
	return min(max(k, 0), n-1)
}

// beyond counts the samples that lie above the nearest-rank p-quantile of n
// samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// tailLadder is the set of percentiles a workload's tail latency is chosen
// from. It stops at p99: service-warm's ~14 000 jobs would otherwise pick
// p99.9, whose handful of samples beyond it move from run to run.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99}

// tailChoice returns the highest percentile of tailLadder that leaves at
// least ten of n samples beyond it, or 0 when not even the median does.
func tailChoice(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how the benchmark's run-to-run spread is judged. It needs
// at least two samples; with fewer it returns the single value twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles of xs as a share of their
// median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}
