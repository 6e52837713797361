package telemetry

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// The latency histogram uses fixed power-of-two nanosecond buckets: bucket i
// covers (2^(histMinShift+i-1), 2^(histMinShift+i)] ns, upper bound
// included as Prometheus's le means ≤, with bucket 0 absorbing everything
// up to 2^histMinShift and a final overflow bucket absorbing everything
// above the largest finite bound. Fixed bounds
// keep Record allocation-free and mergeable across shards with plain adds;
// power-of-two bounds make the bucket index one bits.Len64.
const (
	histMinShift = 4  // first finite upper bound: 16ns
	histFinite   = 28 // last finite upper bound: 2^31 ns ≈ 2.15s
	histBuckets  = histFinite + 1
)

// BucketBound returns bucket i's inclusive upper bound in nanoseconds;
// the overflow bucket reports -1 (unbounded).
func BucketBound(i int) int64 {
	if i >= histFinite {
		return -1
	}
	return int64(1) << (histMinShift + i)
}

// bucketIndex maps a latency in nanoseconds to its bucket: the one whose
// bound is the least power of two ≥ ns.
func bucketIndex(ns int64) int {
	if ns <= 0 {
		return 0
	}
	i := bits.Len64(uint64(ns-1)) - histMinShift
	if i < 0 {
		return 0
	}
	if i > histFinite {
		return histFinite
	}
	return i
}

// histShard is one shard's bucket counts, padded so that concurrent
// recorders on distinct shards never share a cache line.
type histShard struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Int64 // total nanoseconds recorded by this shard
	_      [6]int64
}

// Histogram is a lock-free fixed-bucket latency histogram sharded across
// recorders. Record is wait-free (two atomic adds and one CAS-bounded max
// update); snapshots merge the shards.
type Histogram struct {
	shards []histShard
	mask   uint32
	max    atomic.Int64
}

// NewHistogram returns a histogram with the given shard count, rounded up
// to a power of two (minimum 1).
func NewHistogram(shards int) *Histogram {
	n := ceilPow2(shards)
	return &Histogram{shards: make([]histShard, n), mask: uint32(n - 1)}
}

// Record folds one latency into the shard selected by key (any value that
// spreads concurrent recorders, e.g. a worker or wire id).
func (h *Histogram) Record(key int, d time.Duration) { h.RecordN(key, d, 1) }

// RecordN folds n identical latency observations in one wait-free pass —
// the weighted form for paths that aggregate many operations into one
// timed unit (the server's batched UDP ingest folds a syscall's worth of
// datagrams into one mailbox post but still accounts latency per
// datagram).
func (h *Histogram) RecordN(key int, d time.Duration, n int) {
	if n <= 0 {
		return
	}
	ns := int64(d)
	sh := &h.shards[uint32(key)&h.mask]
	sh.counts[bucketIndex(ns)].Add(uint64(n))
	sh.sum.Add(ns * int64(n))
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// LatencySummary is a merged snapshot of a Histogram.
type LatencySummary struct {
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sumNS"`
	P50   time.Duration `json:"p50NS"`
	P95   time.Duration `json:"p95NS"`
	P99   time.Duration `json:"p99NS"`
	Max   time.Duration `json:"maxNS"`
	// Buckets holds the non-cumulative per-bucket counts; Bounds[i] is
	// bucket i's inclusive upper bound in ns (-1 for the overflow bucket).
	Buckets []uint64 `json:"buckets"`
	Bounds  []int64  `json:"boundsNS"`
}

// Summary merges the shards and computes the quantiles.
func (h *Histogram) Summary() LatencySummary {
	s := LatencySummary{
		Buckets: make([]uint64, histBuckets),
		Bounds:  make([]int64, histBuckets),
	}
	for i := range s.Bounds {
		s.Bounds[i] = BucketBound(i)
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := 0; b < histBuckets; b++ {
			s.Buckets[b] += sh.counts[b].Load()
		}
		s.Sum += time.Duration(sh.sum.Load())
	}
	for _, c := range s.Buckets {
		s.Count += c
	}
	s.Max = time.Duration(h.max.Load())
	s.P50 = s.quantile(0.50)
	s.P95 = s.quantile(0.95)
	s.P99 = s.quantile(0.99)
	return s
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket holding the target rank; the overflow bucket reports the observed
// maximum. The estimate is exact to within the bucket's bounds.
func (s LatencySummary) quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		if cum+c <= target {
			cum += c
			continue
		}
		if i >= histFinite {
			return s.Max
		}
		hi := float64(BucketBound(i))
		lo := hi / 2
		if i == 0 {
			lo = 0
		}
		frac := (float64(target-cum) + 0.5) / float64(c)
		v := time.Duration(lo + (hi-lo)*frac)
		if v > s.Max && s.Max > 0 {
			v = s.Max
		}
		return v
	}
	return s.Max
}

// String formats the headline quantiles on one line.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%v p95=%v p99=%v max=%v",
		s.Count, s.P50, s.P95, s.P99, s.Max)
}

// ceilPow2 rounds n up to a power of two, minimum 1.
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len64(uint64(n-1))
}
