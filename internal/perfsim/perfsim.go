// Package perfsim is a discrete-event contention simulator for concurrent
// counters, standing in for the multiprocessor testbeds of the
// counting-network literature (AHS94 §6, SZ96, SUZ98). Real contention
// is measured as well (BenchmarkThroughput at -cpu 2, the benchmark's
// runtime.inc_contended_ns), but a two-core machine shows only the first
// step of a scaling curve that the literature draws over tens of
// processors. So the motivating performance claim — a central counter
// saturates at one increment per memory-access time while a counting
// network's throughput keeps scaling — is regenerated on a queueing model,
// whose process count is a parameter:
//
//   - every balancer (and every sink counter, and the central counter
//     baseline) is a FIFO server with a fixed service time, modelling the
//     serialization of atomic updates to one memory location;
//   - wires add a fixed transit delay;
//   - each of P processes loops: think for a while, then shepherd a token
//     through the object; throughput and latency are measured once the
//     system warms up.
//
// The model is deliberately simple (deterministic service, exponential-ish
// think times from a seeded PRNG) — the paper-level claim is about shape:
// who saturates, where the crossover sits, and how depth costs latency.
package perfsim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"repro/internal/network"
)

// Config parameterises one simulation run.
type Config struct {
	// Processes is the number of concurrent clients P.
	Processes int
	// Ops is the number of completed operations to simulate (after warm-up).
	Ops int
	// Warmup operations are discarded before measuring.
	Warmup int
	// ServiceTime is the cost of one atomic update at a balancer or
	// counter (the memory-access serialization unit).
	ServiceTime float64
	// WireDelay is the transit time between stages.
	WireDelay float64
	// ThinkMean is the mean think time between a process's operations
	// (drawn uniformly from [0, 2·ThinkMean], so the mean is ThinkMean).
	ThinkMean float64
	Seed      int64
}

// Result summarises a run.
type Result struct {
	// Throughput is completed operations per unit time (measured window).
	Throughput float64
	// AvgLatency is the mean time from entering the object to obtaining a
	// value.
	AvgLatency float64
	// MaxQueue is the longest queue observed at any server.
	MaxQueue int
	// BusiestUtilization is the highest server utilization (busy time /
	// window) — 1.0 means a saturated bottleneck.
	BusiestUtilization float64
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("throughput %.4f ops/t, latency %.2f t, max queue %d, bottleneck util %.2f",
		r.Throughput, r.AvgLatency, r.MaxQueue, r.BusiestUtilization)
}

// server is a FIFO single-server station.
type server struct {
	busyUntil float64
	queue     int // tokens waiting or in service
	busyAccum float64
	maxQueue  int
}

// admit returns the time at which service for a token arriving at `now`
// completes.
func (s *server) admit(now, service float64) float64 {
	if s.busyUntil < now {
		s.busyUntil = now
	}
	start := s.busyUntil
	s.busyUntil = start + service
	s.busyAccum += service
	s.queue++
	if s.queue > s.maxQueue {
		s.maxQueue = s.queue
	}
	return s.busyUntil
}

func (s *server) depart() { s.queue-- }

// event is a simulation event.
type event struct {
	at   float64
	seq  int64 // FIFO tie-break
	proc int
	kind eventKind
	node int // station index for evService
}

type eventKind int

const (
	evStart   eventKind = iota + 1 // process begins an operation (enters object)
	evService                      // token finishes service at a station
)

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(a, b int) bool {
	if q[a].at != q[b].at {
		return q[a].at < q[b].at
	}
	return q[a].seq < q[b].seq
}
func (q eventQueue) Swap(a, b int)       { q[a], q[b] = q[b], q[a] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	*q = old[:n-1]
	return ev
}

// Object is a counter structure in the queueing model: it routes a token
// from station to station.
type Object interface {
	// Entry returns the first station for a process's token.
	Entry(proc int) int
	// NextAfter returns the station after `station` for this token, or -1
	// when the token is done (it has its value).
	NextAfter(station int, proc int) int
	// Stations returns the number of stations.
	Stations() int
}

// Simulate runs the model until cfg.Ops post-warmup operations complete.
func Simulate(obj Object, cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	servers := make([]server, obj.Stations())
	var q eventQueue
	var seq int64
	push := func(at float64, proc int, kind eventKind, node int) {
		seq++
		heap.Push(&q, &event{at: at, seq: seq, proc: proc, kind: kind, node: node})
	}
	think := func() float64 {
		if cfg.ThinkMean <= 0 {
			return 0
		}
		return rng.Float64() * 2 * cfg.ThinkMean
	}
	for p := 0; p < cfg.Processes; p++ {
		push(think(), p, evStart, -1)
	}

	entered := make([]float64, cfg.Processes)
	completed := 0
	var windowStart, lastDone, latencySum float64
	measuring := false
	total := cfg.Warmup + cfg.Ops

	for completed < total && q.Len() > 0 {
		ev := heap.Pop(&q).(*event)
		switch ev.kind {
		case evStart:
			entered[ev.proc] = ev.at
			st := obj.Entry(ev.proc)
			done := servers[st].admit(ev.at, cfg.ServiceTime)
			push(done, ev.proc, evService, st)
		case evService:
			servers[ev.node].depart()
			next := obj.NextAfter(ev.node, ev.proc)
			if next < 0 {
				completed++
				if completed == cfg.Warmup {
					measuring = true
					windowStart = ev.at
					// Reset utilization accounting at the window edge.
					for i := range servers {
						servers[i].busyAccum = 0
					}
				}
				if measuring && completed > cfg.Warmup {
					latencySum += ev.at - entered[ev.proc]
					lastDone = ev.at
				}
				push(ev.at+think(), ev.proc, evStart, -1)
				continue
			}
			arrive := ev.at + cfg.WireDelay
			done := servers[next].admit(arrive, cfg.ServiceTime)
			push(done, ev.proc, evService, next)
		}
	}

	res := Result{}
	window := lastDone - windowStart
	if window > 0 {
		res.Throughput = float64(cfg.Ops) / window
		for i := range servers {
			if u := servers[i].busyAccum / window; u > res.BusiestUtilization {
				res.BusiestUtilization = u
			}
		}
	}
	if cfg.Ops > 0 {
		res.AvgLatency = latencySum / float64(cfg.Ops)
	}
	for i := range servers {
		if servers[i].maxQueue > res.MaxQueue {
			res.MaxQueue = servers[i].maxQueue
		}
	}
	return res
}

// CentralObject is the single-location baseline: one station.
type CentralObject struct{}

// Entry implements Object.
func (CentralObject) Entry(int) int { return 0 }

// NextAfter implements Object.
func (CentralObject) NextAfter(int, int) int { return -1 }

// Stations implements Object.
func (CentralObject) Stations() int { return 1 }

// NetworkObject routes tokens through a compiled balancing network with a
// toggle per balancer (round-robin routing, as in the real object) and one
// station per balancer plus one per sink counter.
type NetworkObject struct {
	net     *network.Network
	toggles []int
	// station layout: balancers 0..size-1, sinks size..size+wOut-1.
}

// NewNetworkObject wraps a network for the queueing model.
func NewNetworkObject(net *network.Network) *NetworkObject {
	return &NetworkObject{net: net, toggles: make([]int, net.Size())}
}

// Entry implements Object.
func (o *NetworkObject) Entry(proc int) int {
	to := o.net.InputTarget(proc % o.net.FanIn())
	return o.stationFor(to)
}

// NextAfter implements Object.
func (o *NetworkObject) NextAfter(station int, proc int) int {
	if station >= o.net.Size() {
		return -1 // was a sink counter: value obtained
	}
	// Service at a balancer toggles it, exactly like the real object.
	b := station
	port := o.toggles[b]
	o.toggles[b] = (port + 1) % o.net.Balancer(b).FanOut
	return o.stationFor(o.net.OutputTarget(b, port))
}

// Stations implements Object.
func (o *NetworkObject) Stations() int { return o.net.Size() + o.net.FanOut() }

func (o *NetworkObject) stationFor(e network.Endpoint) int {
	if e.Kind == network.KindSink {
		return o.net.Size() + e.Index
	}
	return e.Index
}
