// Package runtime is the shared-memory implementation of counting networks
// sketched in Section 2.7 of the paper: balancers are records updated
// atomically, wires are pointers, and each process repeatedly shepherds
// tokens from its input pointer to a counter. Unlike package network
// (which models executions one instantaneous step at a time), this package
// is genuinely concurrent: any number of goroutines may traverse one
// Counter simultaneously.
//
// The package also provides the baselines counting networks are compared
// against in the literature (AHS94, MS91, GVW89): a single
// fetch-and-increment counter, a mutex-protected counter, a CLH-style
// queue-lock counter and a software combining tree.
package runtime

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/network"
)

// Counter is anything that hands out successive values. Implementations
// must be safe for concurrent use. The counting-network implementations
// are "quiescently consistent": values handed out never have duplicates or
// gaps, and the step property holds whenever the network is quiescent, but
// real-time order across processes is only as strong as the timing
// conditions studied in the paper.
type Counter interface {
	// Inc obtains the next value. wire selects the caller's network input
	// wire; implementations without wires ignore it.
	Inc(wire int) int64
}

// CtxCounter is a Counter whose increments honour deadlines and
// cancellation: IncCtx returns fault.ErrTimeout / fault.ErrClosed /
// context.Canceled instead of a value when the operation gives up.
// Network, LinearizableCounter (this package), msgnet.Network and the
// network client all implement it.
type CtxCounter interface {
	Counter
	IncCtx(ctx context.Context, wire int) (int64, error)
}

// BatchCounter is a Counter that can reserve many values in one amortized
// operation; Network implements it.
type BatchCounter interface {
	Counter
	IncBatch(wire, k int) []Range
}

// FaultHook observes — and, for fault injection, delays — balancer
// transitions. It is called once per token arriving at balancer bal,
// before the toggle fires. A hook that stalls should watch ctx so that
// deadline-bounded increments are not held hostage; ctx is
// context.Background() for plain Inc calls.
type FaultHook func(ctx context.Context, bal int)

// Observer receives telemetry events from an instrumented network (the
// telemetry package's Collector implements it). All methods must
// be safe for concurrent use and should be fast: they run inline on the
// traversal. wire is the caller-supplied input wire, un-reduced, so
// observers can use it as the worker identity.
//
// Like FaultHook, the hook is zero-cost when absent: the uninstrumented
// Inc fast path pays one well-predicted nil check and allocates nothing.
type Observer interface {
	// TokenEnter fires when a token enters the network on wire.
	TokenEnter(wire int)
	// BalancerVisit fires once per balancer the token visits, before the
	// toggle; in IncCAS, between the toggle's first read and its first
	// compare-and-swap. On the batched path (IncBatch) it fires once per
	// balancer the batch toggles — i.e. once per atomic operation, not
	// once per token.
	BalancerVisit(wire, bal int)
	// CASRetry fires once per failed compare-and-swap in IncCAS.
	CASRetry(wire, bal int)
	// TokenExit fires when the token obtains value at sink, elapsed after
	// its TokenEnter. On the batched path it fires once per sink the batch
	// drew from, with the range's first value.
	TokenExit(wire, sink int, value int64, elapsed time.Duration)
}

// The compiled hot path is laid out for mechanical sympathy:
//
//   - Every balancer toggle lives on its own cache line (paddedToggle).
//     Tokens from different balancers would otherwise false-share: a
//     fetch-and-add on balancer b invalidates the line holding b±1's
//     toggle too, reintroducing exactly the contention the network
//     distributes away (the same reasoning as paddedCounter on sinks).
//
//   - All routing is one contiguous read-only []int32 (routes): words
//     0..wIn-1 are the input wires' targets, then each balancer's output
//     ports follow at meta[b].base. A word ≥ 0 is the next balancer's
//     index; a word < 0 encodes sink j as ^j. The whole table for a
//     B(16) fits in a handful of cache lines and is never written after
//     Compile, so every core keeps it in Shared state.
//
//   - Port selection avoids the int64 division of `state % fanOut`: all
//     the classical constructions (bitonic, periodic, trees) use
//     power-of-two fan-outs, reduced with a bitmask; general fan-outs
//     are strength-reduced to a multiply-high against a precomputed
//     reciprocal (Granlund–Montgomery), see portOf.

// paddedToggle is one balancer's fetch-and-add toggle, padded to a cache
// line so adjacent balancers never false-share.
type paddedToggle struct {
	v atomic.Int64
	_ [7]int64
}

// balMeta is the read-only per-balancer routing metadata.
type balMeta struct {
	base int32 // index of this balancer's first output port in routes
	// mask is fanOut-1 when fanOut is a power of two (the common case:
	// every classical construction), else -1.
	mask   int32
	fanOut uint64
	// magic is ⌊2^64/fanOut⌋, used to strength-reduce state % fanOut to a
	// multiply-high when mask < 0.
	magic uint64
}

// portOf reduces a toggle state (≥ 0) to an output port of m.
func portOf(t int64, m *balMeta) int64 {
	if m.mask >= 0 {
		return t & int64(m.mask)
	}
	// q = ⌊t·⌊2^64/f⌋ / 2^64⌋ is ⌊t/f⌋ or ⌊t/f⌋-1, so one conditional
	// subtract corrects the remainder — no division in sight.
	q, _ := bits.Mul64(uint64(t), m.magic)
	r := uint64(t) - q*m.fanOut
	if r >= m.fanOut {
		r -= m.fanOut
	}
	return int64(r)
}

// reduceWire maps an arbitrary caller wire id (worker ids, possibly
// negative) onto 0..wIn-1. Unlike Go's %, the result is never negative.
func reduceWire(wire, wIn int) int {
	w := wire % wIn
	if w < 0 {
		w += wIn
	}
	return w
}

// Network is a compiled, concurrently traversable counting network.
type Network struct {
	wIn, wOut int
	toggles   []paddedToggle
	meta      []balMeta
	// routes is the packed routing table: routes[0:wIn] are the input
	// wires' targets, balancer b's ports start at meta[b].base. Words ≥ 0
	// name the next balancer; words < 0 encode sink j as ^j.
	routes   []int32
	counters []paddedCounter
	// topo lists balancer indices in topological (layer) order; IncBatch
	// propagates token counts along it.
	topo  []int32
	depth int
	// hook, when non-nil, is consulted before every balancer transition.
	// The fast path pays exactly one well-predicted nil check for it.
	hook FaultHook
	// obs, when non-nil, receives telemetry events (same cost model).
	obs Observer
	// batchScratch recycles IncBatch's per-call count buffers so batch
	// allocations stay O(width), independent of both k and call count.
	batchScratch sync.Pool
}

// paddedCounter keeps sink counters on separate cache lines; the whole
// point of a counting network is that counters are not contended, and
// false sharing would reintroduce the contention.
type paddedCounter struct {
	v atomic.Int64
	_ [7]int64
}

// Compile flattens a network.Network into its concurrent form.
func Compile(spec *network.Network) (*Network, error) {
	nb := spec.Size()
	n := &Network{
		wIn:      spec.FanIn(),
		wOut:     spec.FanOut(),
		toggles:  make([]paddedToggle, nb),
		meta:     make([]balMeta, nb),
		counters: make([]paddedCounter, spec.FanOut()),
		topo:     make([]int32, nb),
		depth:    spec.Depth(),
	}
	conv := func(e network.Endpoint) (int32, error) {
		switch e.Kind {
		case network.KindSink:
			return ^int32(e.Index), nil
		case network.KindBalancer:
			return int32(e.Index), nil
		default:
			return 0, fmt.Errorf("runtime: cannot compile wire into %v", e)
		}
	}
	ports := 0
	for b := 0; b < nb; b++ {
		ports += spec.Balancer(b).FanOut
	}
	n.routes = make([]int32, 0, spec.FanIn()+ports)
	for i := 0; i < spec.FanIn(); i++ {
		w, err := conv(spec.InputTarget(i))
		if err != nil {
			return nil, err
		}
		n.routes = append(n.routes, w)
	}
	for b := 0; b < nb; b++ {
		f := spec.Balancer(b).FanOut
		m := &n.meta[b]
		m.base = int32(len(n.routes))
		m.fanOut = uint64(f)
		if f&(f-1) == 0 {
			m.mask = int32(f - 1)
		} else {
			m.mask = -1
			m.magic = math.MaxUint64 / uint64(f)
		}
		for p := 0; p < f; p++ {
			w, err := conv(spec.OutputTarget(b, p))
			if err != nil {
				return nil, err
			}
			n.routes = append(n.routes, w)
		}
	}
	// Balancer depth strictly increases along every wire, so sorting by
	// depth is a topological order of the DAG.
	for b := range n.topo {
		n.topo[b] = int32(b)
	}
	sort.SliceStable(n.topo, func(a, b int) bool {
		return spec.BalancerDepth(int(n.topo[a])) < spec.BalancerDepth(int(n.topo[b]))
	})
	for j := range n.counters {
		n.counters[j].v.Store(int64(j))
	}
	n.batchScratch.New = func() any {
		return &batchCounts{
			pending: make([]int64, nb),
			sinks:   make([]int64, spec.FanOut()),
		}
	}
	return n, nil
}

// MustCompile compiles or panics; for statically valid constructions.
func MustCompile(spec *network.Network) *Network {
	n, err := Compile(spec)
	if err != nil {
		panic(err)
	}
	return n
}

// FanIn returns the number of input wires.
func (n *Network) FanIn() int { return n.wIn }

// Width is FanIn under its serving-layer name: valid input wire ids are
// 0..Width()-1 (Inc itself reduces arbitrary ids modulo the width, but a
// server validating remote requests wants the bound, not the reduction).
func (n *Network) Width() int { return n.wIn }

// Shape returns the compiled network's structural fingerprint.
func (n *Network) Shape() network.Shape {
	return network.Shape{Width: n.wIn, Sinks: n.wOut, Balancers: len(n.meta), Depth: n.depth}
}

// Issued returns the number of counter values handed out so far: the sum
// over sinks of completed fetch-and-adds. Concurrent traversals make the
// sum a lower bound that is exact at quiescence.
func (n *Network) Issued() int64 {
	var total int64
	for j := range n.counters {
		// Counter j holds the next value it will hand out: j + issued_j*w.
		total += (n.counters[j].v.Load() - int64(j)) / int64(n.wOut)
	}
	return total
}

// FanOut returns the number of output counters.
func (n *Network) FanOut() int { return n.wOut }

// Depth returns the network depth d(G).
func (n *Network) Depth() int { return n.depth }

// Size returns the number of balancers.
func (n *Network) Size() int { return len(n.meta) }

// SetFaultHook installs (or, with nil, removes) the per-balancer fault
// hook. It must not race with traversals: install before the network is
// shared, or between quiescent phases. Uninstrumented traversals are
// unchanged apart from one nil check.
func (n *Network) SetFaultHook(h FaultHook) { n.hook = h }

// SetObserver installs (or, with nil, removes) the telemetry observer,
// under the same discipline as SetFaultHook: install before the network is
// shared, or between quiescent phases.
func (n *Network) SetObserver(o Observer) { n.obs = o }

// Inc traverses the network from the given input wire (reduced modulo the
// fan-in, so callers may pass a worker id — even a negative one —
// directly) and returns the counter value obtained. Balancer steps use a
// single fetch-and-add each, so every balancer transition is atomic,
// exactly matching the instantaneous-step semantics of the model.
func (n *Network) Inc(wire int) int64 {
	if n.hook != nil || n.obs != nil {
		// Instrumented path: hooks fire, but with no deadline the
		// traversal always completes and the error is always nil.
		v, _ := n.IncCtx(context.Background(), wire)
		return v
	}
	at := n.routes[reduceWire(wire, n.wIn)]
	for at >= 0 {
		m := &n.meta[at]
		t := n.toggles[at].v.Add(1) - 1
		at = n.routes[int(m.base)+int(portOf(t, m))]
	}
	return n.counters[^at].v.Add(int64(n.wOut)) - int64(n.wOut)
}

// IncCtx is Inc with deadline/cancellation support. The deadline is
// honoured at two points: before the token enters the network, and after
// any fault-hook stall at the token's *first* balancer — at both points
// the token has not yet toggled anything, so giving up is free. Once the
// first toggle fires the token is committed: a shared-memory traversal is
// wait-free (hooks stall it only as long as they choose to, and they watch
// ctx), and aborting a half-travelled token would skew the balancers it
// already toggled, breaking gap-freedom for everyone else. A committed
// traversal therefore always returns its value, even if ctx expired while
// it was in flight.
func (n *Network) IncCtx(ctx context.Context, wire int) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fault.FromContext(err)
	}
	obs := n.obs
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
		obs.TokenEnter(wire)
	}
	at := n.routes[reduceWire(wire, n.wIn)]
	first := true
	for at >= 0 {
		if n.hook != nil {
			n.hook(ctx, int(at))
			if first {
				if err := ctx.Err(); err != nil {
					return 0, fault.FromContext(err)
				}
			}
		}
		first = false
		if obs != nil {
			obs.BalancerVisit(wire, int(at))
		}
		m := &n.meta[at]
		t := n.toggles[at].v.Add(1) - 1
		at = n.routes[int(m.base)+int(portOf(t, m))]
	}
	sink := int(^at)
	v := n.counters[sink].v.Add(int64(n.wOut)) - int64(n.wOut)
	if obs != nil {
		obs.TokenExit(wire, sink, v, time.Since(t0))
	}
	return v, nil
}

// IncCAS is Inc with compare-and-swap balancer toggles instead of
// fetch-and-add — the ablation DESIGN.md calls out. Under contention CAS
// retries make balancers slower but the traversal is otherwise identical.
func (n *Network) IncCAS(wire int) int64 {
	obs := n.obs
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
		obs.TokenEnter(wire)
	}
	at := n.routes[reduceWire(wire, n.wIn)]
	for at >= 0 {
		m := &n.meta[at]
		tg := &n.toggles[at].v
		t := tg.Load()
		if obs != nil {
			obs.BalancerVisit(wire, int(at))
		}
		for !tg.CompareAndSwap(t, t+1) {
			if obs != nil {
				obs.CASRetry(wire, int(at))
			}
			t = tg.Load()
		}
		at = n.routes[int(m.base)+int(portOf(t, m))]
	}
	sink := int(^at)
	v := n.counters[sink].v.Add(int64(n.wOut)) - int64(n.wOut)
	if obs != nil {
		obs.TokenExit(wire, sink, v, time.Since(t0))
	}
	return v
}

// Verify checks the values handed out by a quiesced run: together with the
// values' multiset being exactly 0..N-1 this is the counting property.
// It is a test helper surfaced here so examples can audit themselves.
func Verify(values []int64) error {
	seen := make([]bool, len(values))
	for _, v := range values {
		if v < 0 || v >= int64(len(values)) {
			return fmt.Errorf("runtime: value %d outside 0..%d", v, len(values)-1)
		}
		if seen[v] {
			return fmt.Errorf("runtime: duplicate value %d", v)
		}
		seen[v] = true
	}
	return nil
}

// AtomicCounter is the single fetch-and-increment baseline: correct and
// linearizable, but every increment contends on one cache line.
type AtomicCounter struct {
	v atomic.Int64
}

// Inc implements Counter.
func (c *AtomicCounter) Inc(int) int64 { return c.v.Add(1) - 1 }

// MutexCounter is the lock-based baseline.
type MutexCounter struct {
	mu sync.Mutex
	v  int64
}

// Inc implements Counter.
func (c *MutexCounter) Inc(int) int64 {
	c.mu.Lock()
	v := c.v
	c.v++
	c.mu.Unlock()
	return v
}
