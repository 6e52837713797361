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

// The compiled hot path is one predicted branch and one written cache
// line per balancer hop:
//
//   - Each balancer's toggle sits alone on its own cache line
//     (paddedToggle), and the hop's fetch-and-add is the only access to
//     it. A token toggling b never invalidates b±1's toggle (the same
//     reasoning as paddedCounter on sinks), and a contended toggle — the
//     root of a tree, a bitonic network's first layer — moves between
//     cores once per token. Any other read of that line, before the Add or
//     after it, makes it move twice. Measured on tree-16-faa at g=4 and
//     two Ps (BenchmarkThroughput, 2-vCPU Sapphire Rapids guest,
//     go1.24.0): one 64-byte line per balancer, toggle and ports
//     together, read 206–232 ns per value; a toggle line plus a
//     read-only record whose ports were looked up after the Add, 183–188;
//     this layout, 106–130.
//
//   - Everything else a hop reads is one read-only 32-byte record
//     (balancer): the port-selection constants and the first two output
//     ports. It is never written after Compile, so every core keeps it
//     in Shared state; B(16)'s 80 records fill 40 lines.
//
//   - A fan-out-2 hop reads both ports before its Add and picks one with a
//     plain if on the new toggle's low bit. The next balancer's index is
//     then a predicted branch, not a load whose address depends on the
//     fetch-and-add, so the next hop's loads issue while the Add retires.
//     Indexing instead (`at = port[t&1]`) makes the hop a data dependency
//     again: on bitonic-16-faa at g=1 it read 161–181 ns per value, the
//     branch 127–138, and a lookup in routes after the Add 151–153.
//
//   - routes is the read-only remainder: words 0..wIn-1 are the input
//     wires' targets, then the ports past the second of wider balancers
//     (Figure 2's (3,3)-balancers, SingleBalancer(f)). No port is stored
//     twice. A word ≥ 0 is the next balancer's index; a word < 0 encodes
//     sink j as ^j.
//
//   - Port selection never divides. Every classical construction (bitonic,
//     periodic, trees) has power-of-two fan-outs, reduced with a mask and,
//     in IncBatch, a shift; general fan-outs are strength-reduced to a
//     multiply-high against a precomputed reciprocal (Granlund–Montgomery),
//     see portOf and split.

// paddedToggle is one balancer's fetch-and-add toggle, padded to a cache
// line so the hop's Add is the only access to it.
type paddedToggle struct {
	v atomic.Int64
	_ [7]int64
}

// balancer is everything a token reads to leave a compiled balancer; its
// toggle is the matching paddedToggle.
type balancer struct {
	// magic is ⌊2^64/fanOut⌋, used to strength-reduce division by fanOut
	// to a multiply-high when mask < 0.
	magic  uint64
	fanOut uint32
	// port0 and port1 are the first two output ports, in routes' encoding
	// (port1 is unused at fan-out 1).
	port0, port1 int32
	// mask is fanOut-1 and shift is log2(fanOut) when fanOut is a power of
	// two (every classical construction); else mask is -1.
	mask  int32
	shift uint32
	// rest is the index in routes of port 2, for fan-outs above 2.
	rest int32
}

// portOf reduces a toggle state (≥ 0) to an output port of b.
func portOf(t int64, b *balancer) int64 {
	if b.mask >= 0 {
		return t & int64(b.mask)
	}
	// q = ⌊t·⌊2^64/f⌋ / 2^64⌋ is ⌊t/f⌋ or ⌊t/f⌋-1, so one conditional
	// subtract corrects the remainder — no division in sight.
	f := uint64(b.fanOut)
	q, _ := bits.Mul64(uint64(t), b.magic)
	r := uint64(t) - q*f
	if r >= f {
		r -= f
	}
	return int64(r)
}

// split divides k (≥ 0) tokens among b's ports: every port gets q, and r
// ports get one more.
func split(k int64, b *balancer) (q, r int64) {
	if b.mask >= 0 {
		return k >> b.shift, k & int64(b.mask)
	}
	f := uint64(b.fanOut)
	uq, _ := bits.Mul64(uint64(k), b.magic)
	ur := uint64(k) - uq*f
	if ur >= f {
		ur -= f
		uq++
	}
	return int64(uq), int64(ur)
}

// next returns where port p of b leads.
func (b *balancer) next(p int64, routes []int32) int32 {
	switch p {
	case 0:
		return b.port0
	case 1:
		return b.port1
	}
	return routes[int64(b.rest)+p-2]
}

// reduceWire maps an arbitrary caller wire id (worker ids, possibly
// negative) onto 0..wIn-1. Unlike Go's %, the result is never negative,
// and an in-range wire costs no division.
func reduceWire(wire, wIn int) int {
	if uint(wire) < uint(wIn) {
		return wire
	}
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
	bals      []balancer
	// routes is the read-only rest of the routing: routes[0:wIn] are the
	// input wires' targets, then the ports past the second of wider
	// balancers (bals[b].rest). Words ≥ 0 name the next balancer; words
	// < 0 encode sink j as ^j.
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
		bals:     make([]balancer, nb),
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
	extra := 0
	for b := 0; b < nb; b++ {
		extra += max(spec.Balancer(b).FanOut-2, 0)
	}
	n.routes = make([]int32, 0, spec.FanIn()+extra)
	for i := 0; i < spec.FanIn(); i++ {
		w, err := conv(spec.InputTarget(i))
		if err != nil {
			return nil, err
		}
		n.routes = append(n.routes, w)
	}
	for b := 0; b < nb; b++ {
		f := spec.Balancer(b).FanOut
		bal := &n.bals[b]
		bal.setFanOut(f)
		bal.rest = int32(len(n.routes))
		for p := 0; p < f; p++ {
			w, err := conv(spec.OutputTarget(b, p))
			if err != nil {
				return nil, err
			}
			switch p {
			case 0:
				bal.port0 = w
			case 1:
				bal.port1 = w
			default:
				n.routes = append(n.routes, w)
			}
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

// setFanOut fills in b's port-selection constants for fan-out f ≥ 1.
func (b *balancer) setFanOut(f int) {
	b.fanOut = uint32(f)
	if f&(f-1) == 0 {
		b.mask = int32(f - 1)
		b.shift = uint32(bits.TrailingZeros(uint(f)))
	} else {
		b.mask = -1
		b.magic = math.MaxUint64 / uint64(f)
	}
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
	return network.Shape{Width: n.wIn, Sinks: n.wOut, Balancers: len(n.bals), Depth: n.depth}
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

// SinkCounts returns how many values each output counter has handed out:
// counter j holds j + issued_j·w. Like Issued it is exact at quiescence,
// where the counts satisfy the step property.
func (n *Network) SinkCounts() []int64 {
	counts := make([]int64, n.wOut)
	for j := range n.counters {
		counts[j] = (n.counters[j].v.Load() - int64(j)) / int64(n.wOut)
	}
	return counts
}

// FanOut returns the number of output counters.
func (n *Network) FanOut() int { return n.wOut }

// Depth returns the network depth d(G).
func (n *Network) Depth() int { return n.depth }

// Size returns the number of balancers.
func (n *Network) Size() int { return len(n.bals) }

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
	// Atomics are compiler barriers: without these locals every hop
	// would reload the slices and bounds-check them afresh.
	toggles, bals, routes := n.toggles, n.bals, n.routes
	at := routes[reduceWire(wire, n.wIn)]
	for at >= 0 {
		b, tg := &bals[at], &toggles[at].v
		if b.mask != 1 {
			at = b.next(portOf(tg.Add(1)-1, b), routes)
			continue
		}
		// Fan-out 2: both ports are read before the Add, and the new
		// toggle is odd exactly when the state before it was even.
		p0, p1 := b.port0, b.port1
		if tg.Add(1)&1 != 0 {
			at = p0
		} else {
			at = p1
		}
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
	toggles, bals, routes, hook := n.toggles, n.bals, n.routes, n.hook
	at := routes[reduceWire(wire, n.wIn)]
	first := true
	for at >= 0 {
		if hook != nil {
			hook(ctx, int(at))
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
		b := &bals[at]
		at = b.next(portOf(toggles[at].v.Add(1)-1, b), routes)
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
	toggles, bals, routes := n.toggles, n.bals, n.routes
	at := routes[reduceWire(wire, n.wIn)]
	for at >= 0 {
		b, tg := &bals[at], &toggles[at].v
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
		at = b.next(portOf(t, b), routes)
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
