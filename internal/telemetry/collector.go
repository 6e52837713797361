// Package telemetry is the observability layer for the concurrent counting
// implementations: lock-free per-balancer traffic counters and Inc latency
// histograms (Collector), the Prometheus text writers every /metrics
// section is written with (WriteFamily, WriteSample, WriteHistogram), the
// HTTP surface serving metrics, JSON snapshots and pprof (Handler), and
// the ASCII heatmap of a snapshot's balancer toggles (Heatmap).
// Per-request traces live in the flight recorder (internal/flightrec).
//
// A Collector attaches to runtime.Network (SetObserver) and msgnet.Network
// (WithObserver), satisfying each package's Observer interface
// structurally. The hook is zero-cost when nil, like the fault hook: an
// uninstrumented network pays one well-predicted nil check per Inc and
// allocates nothing.
package telemetry

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// collectorShard holds one shard's counters. Distinct shards live in
// distinct allocations, so concurrent writers on different shards do not
// share cache lines; within a shard, the single writer that usually owns it
// (a worker pinned to a wire) is uncontended.
type collectorShard struct {
	toggles []atomic.Uint64 // per balancer
	retries []atomic.Uint64 // per balancer (CAS ablation)
	wires   []atomic.Uint64 // per input wire
	sinks   []atomic.Uint64 // per output counter
	exits   atomic.Uint64
}

// Collector accumulates per-balancer, per-wire and per-sink traffic counts
// plus an Inc latency histogram, shardedly and without locks: every event
// is a single atomic add on the shard selected by the event's wire, so
// workers pinned to distinct wires never contend.
type Collector struct {
	nbal, nwire, nsink int
	shards             []collectorShard
	mask               uint32
	hist               *Histogram
	start              time.Time
}

// Sized is the shape a Collector needs from a network: implemented by
// network.Network, runtime.Network and anything else with fan and size.
type Sized interface {
	FanIn() int
	FanOut() int
	Size() int
}

// NewCollector returns a collector for a network with the given balancer,
// input-wire and sink counts, sharded for the current GOMAXPROCS.
func NewCollector(balancers, wires, sinks int) *Collector {
	return NewCollectorShards(balancers, wires, sinks, 2*runtime.GOMAXPROCS(0))
}

// NewCollectorFor sizes a collector from a network's own shape.
func NewCollectorFor(n Sized) *Collector {
	return NewCollector(n.Size(), n.FanIn(), n.FanOut())
}

// NewCollectorShards is NewCollector with an explicit shard count (rounded
// up to a power of two).
func NewCollectorShards(balancers, wires, sinks, shards int) *Collector {
	if balancers < 0 || wires < 1 || sinks < 1 {
		panic("telemetry: collector needs balancers ≥ 0 and fan ≥ 1")
	}
	n := ceilPow2(shards)
	c := &Collector{
		nbal:   balancers,
		nwire:  wires,
		nsink:  sinks,
		shards: make([]collectorShard, n),
		mask:   uint32(n - 1),
		hist:   NewHistogram(n),
		start:  time.Now(),
	}
	for i := range c.shards {
		c.shards[i].toggles = make([]atomic.Uint64, balancers)
		c.shards[i].retries = make([]atomic.Uint64, balancers)
		c.shards[i].wires = make([]atomic.Uint64, wires)
		c.shards[i].sinks = make([]atomic.Uint64, sinks)
	}
	return c
}

func (c *Collector) shard(wire int) *collectorShard {
	return &c.shards[uint32(wire)&c.mask]
}

// TokenEnter implements the networks' Observer hooks.
func (c *Collector) TokenEnter(wire int) {
	c.shard(wire).wires[uint(wire)%uint(c.nwire)].Add(1)
}

// BalancerVisit implements the networks' Observer hooks.
func (c *Collector) BalancerVisit(wire, bal int) {
	c.shard(wire).toggles[bal].Add(1)
}

// CASRetry implements the networks' Observer hooks.
func (c *Collector) CASRetry(wire, bal int) {
	c.shard(wire).retries[bal].Add(1)
}

// TokenExit implements the networks' Observer hooks.
func (c *Collector) TokenExit(wire, sink int, value int64, elapsed time.Duration) {
	sh := c.shard(wire)
	sh.sinks[uint(sink)%uint(c.nsink)].Add(1)
	sh.exits.Add(1)
	c.hist.Record(wire, elapsed)
}

// Snapshot is a merged, JSON-serialisable view of a Collector at one
// instant. Counters are monotone, so scraping concurrently with traffic
// yields a consistent-enough view (each counter is exact; cross-counter
// skew is bounded by in-flight tokens).
type Snapshot struct {
	UptimeNS   time.Duration  `json:"uptimeNS"`
	Tokens     uint64         `json:"tokens"`
	Toggles    []uint64       `json:"toggles"`
	CASRetries []uint64       `json:"casRetries"`
	WireTokens []uint64       `json:"wireTokens"`
	SinkTokens []uint64       `json:"sinkTokens"`
	Latency    LatencySummary `json:"latency"`
}

// Snapshot merges all shards.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		UptimeNS:   time.Since(c.start),
		Toggles:    make([]uint64, c.nbal),
		CASRetries: make([]uint64, c.nbal),
		WireTokens: make([]uint64, c.nwire),
		SinkTokens: make([]uint64, c.nsink),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		for b := 0; b < c.nbal; b++ {
			s.Toggles[b] += sh.toggles[b].Load()
			s.CASRetries[b] += sh.retries[b].Load()
		}
		for w := 0; w < c.nwire; w++ {
			s.WireTokens[w] += sh.wires[w].Load()
		}
		for j := 0; j < c.nsink; j++ {
			s.SinkTokens[j] += sh.sinks[j].Load()
		}
		s.Tokens += sh.exits.Load()
	}
	s.Latency = c.hist.Summary()
	return s
}

// TotalToggles sums the per-balancer toggle counts.
func (s Snapshot) TotalToggles() uint64 {
	var t uint64
	for _, v := range s.Toggles {
		t += v
	}
	return t
}

// TopBalancers returns up to k balancer indices ordered by descending
// toggle count (ties by index), the collector-side view of "where tokens
// contend".
func (s Snapshot) TopBalancers(k int) []int {
	idx := make([]int, len(s.Toggles))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if s.Toggles[idx[a]] != s.Toggles[idx[b]] {
			return s.Toggles[idx[a]] > s.Toggles[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// Summary formats the snapshot's headline on one line: totals, latency
// quantiles and the hottest balancers — the compact form the CLIs print
// beside consistency fractions.
func (s Snapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tokens=%d toggles=%d inc{%v}", s.Tokens, s.TotalToggles(), s.Latency)
	if top := s.TopBalancers(3); len(top) > 0 && s.Toggles[top[0]] > 0 {
		b.WriteString(" hottest")
		for _, i := range top {
			if s.Toggles[i] == 0 {
				break
			}
			fmt.Fprintf(&b, " b%d=%d", i, s.Toggles[i])
		}
	}
	return b.String()
}
