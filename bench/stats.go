package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median sorts a copy of v and returns its 50th percentile.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quietHalf is the mean of the lower half of v (the median included when
// the count is odd). It summarises per-window costs and latencies: what
// a shared 2-vCPU guest does to a window — steal, a busy sibling thread,
// a cold cache — only ever adds time, in phases that last seconds, so
// the quieter half of a run's windows says what the code costs and the
// other half says what the neighbours did. A regression in the code
// moves every window and shows just the same.
func quietHalf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[:(len(s)+1)/2]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// tailLadder is the percentiles a tail may be reported at, highest
// first, each with the sample count at which one sample in oneIn — the
// share beyond it — makes ten. A run reports the first it supports.
var tailLadder = []struct {
	pct   float64
	oneIn int
}{{99.999, 100000}, {99.99, 10000}, {99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {75, 4}}

// supportedTail picks the highest percentile of tailLadder with at
// least ten of n samples beyond it (choosing-metrics §1); 50 when even
// the 75th has fewer.
func supportedTail(n int) float64 {
	for _, t := range tailLadder {
		if n >= 10*t.oneIn {
			return t.pct
		}
	}
	return 50
}

// quartiles returns Q1, Q2 and Q3 by the exclusive method, matching
// Python's statistics.quantiles(v, n=4), which is how the driver takes
// a metric's spread. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is (Q3−Q1)/median, the run-to-run noise measure the driver
// holds against a metric's bound.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
