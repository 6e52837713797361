package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {15, 0}, {16, 0},
		{17, 1}, {31, 1}, {32, 1}, {33, 2},
		{1 << 30, histFinite - 2},
		{1<<30 + 1, histFinite - 1},
		{1 << 31, histFinite - 1},
		{1<<31 + 1, histFinite},
		{1 << 60, histFinite},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.ns); got != tc.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
	// Every finite bucket holds its upper bound (Prometheus le is ≤), and
	// one nanosecond more indexes into the next bucket.
	for i := 0; i < histFinite; i++ {
		if got := bucketIndex(BucketBound(i)); got != i {
			t.Errorf("bucketIndex(bound %d) = %d, want %d", BucketBound(i), got, i)
		}
		if got := bucketIndex(BucketBound(i) + 1); got != i+1 {
			t.Errorf("bucketIndex(bound %d + 1) = %d, want %d", BucketBound(i), got, i+1)
		}
	}
}

// TestWriteHistogramBoundInclusive: a sample exactly on a bound is
// exported in that bound's bucket, as Prometheus's le (≤) requires.
func TestWriteHistogramBoundInclusive(t *testing.T) {
	h := NewHistogram(1)
	h.Record(0, 32*time.Nanosecond)
	var b strings.Builder
	WriteHistogram(&b, "x", "", h.Summary())
	for _, want := range []string{
		"x_bucket{le=\"1.6e-08\"} 0\n",
		"x_bucket{le=\"3.2e-08\"} 1\n",
		"x_bucket{le=\"6.4e-08\"} 1\n",
		"x_bucket{le=\"+Inf\"} 1\n",
		"x_sum 3.2e-08\n",
		"x_count 1\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("WriteHistogram output lacks %q:\n%s", want, b.String())
		}
	}
}

// TestHistogramKnownDistribution records 1µs..1ms uniformly and checks the
// quantile estimates land in the power-of-two bucket holding the true
// quantile (the histogram's accuracy contract: within a factor of 2).
func TestHistogramKnownDistribution(t *testing.T) {
	h := NewHistogram(4)
	const n = 1000
	var sum time.Duration
	for i := 1; i <= n; i++ {
		d := time.Duration(i) * time.Microsecond
		h.Record(i, d)
		sum += d
	}
	s := h.Summary()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	if s.Sum != sum {
		t.Fatalf("sum = %v, want %v", s.Sum, sum)
	}
	if s.Max != n*time.Microsecond {
		t.Fatalf("max = %v, want %v", s.Max, n*time.Microsecond)
	}
	for _, tc := range []struct {
		q    float64
		got  time.Duration
		want time.Duration // true quantile of the recorded set
	}{
		{0.50, s.P50, 500 * time.Microsecond},
		{0.95, s.P95, 950 * time.Microsecond},
		{0.99, s.P99, 990 * time.Microsecond},
	} {
		if tc.got < tc.want/2 || tc.got > 2*tc.want {
			t.Errorf("q=%.2f estimate %v outside factor-2 bracket of true %v", tc.q, tc.got, tc.want)
		}
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	h := NewHistogram(1)
	for i := 0; i < 100; i++ {
		h.Record(0, 100*time.Nanosecond) // bucket (64, 128]
	}
	s := h.Summary()
	for _, q := range []time.Duration{s.P50, s.P95, s.P99} {
		if q < 64 || q > 128 {
			t.Errorf("quantile %v outside the only occupied bucket [64ns,128ns]", q)
		}
	}
	if s.Max != 100 {
		t.Errorf("max = %v, want 100ns", s.Max)
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := NewHistogram(2).Summary()
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 || s.Max != 0 {
		t.Errorf("empty histogram summary not zero: %+v", s)
	}
}

// TestHistogramQuantileMonotone: quantile estimates never decrease in q.
func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(2)
	for i := 0; i < 500; i++ {
		h.Record(i, time.Duration(1<<(uint(i)%20))*time.Nanosecond)
	}
	s := h.Summary()
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v max=%v", s.P50, s.P95, s.P99, s.Max)
	}
}
