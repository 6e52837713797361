package runtime

import (
	"context"
	"time"
)

// Range is an arithmetic progression of counter values handed out by one
// sink: First, First+Stride, ..., First+(Count-1)*Stride. IncBatch returns
// one Range per sink the batch drew from, so a batch of k values costs
// O(width) memory instead of O(k).
type Range struct {
	First  int64
	Stride int64
	Count  int64
}

// AppendValues appends the range's concrete values to dst.
func (r Range) AppendValues(dst []int64) []int64 {
	for i := int64(0); i < r.Count; i++ {
		dst = append(dst, r.First+i*r.Stride)
	}
	return dst
}

// ExpandRanges appends every value of every range to dst — the O(k) form,
// for callers that want a flat id block.
func ExpandRanges(dst []int64, rs []Range) []int64 {
	for _, r := range rs {
		dst = r.AppendValues(dst)
	}
	return dst
}

// RangeTotal returns the number of values the ranges carry.
func RangeTotal(rs []Range) int64 {
	var n int64
	for _, r := range rs {
		n += r.Count
	}
	return n
}

// batchCounts is IncBatch's scratch state, recycled through a pool so a
// batch call allocates only its result slice.
type batchCounts struct {
	pending []int64 // tokens waiting at each balancer
	sinks   []int64 // tokens arrived at each sink
}

// IncBatch reserves k counter values from the given input wire with one
// atomic fetch-and-add per *balancer* instead of one per balancer per
// token: O(balancers) atomics for the whole batch versus O(k·depth) for k
// serial Inc calls.
//
// It is equivalent to k consecutive Inc(wire) calls executed back to back:
// at a fan-out-f balancer whose toggle held s, the batch's kb tokens take
// states s..s+kb-1, so output port p receives |{i ∈ [s,s+kb) : i ≡ p mod
// f}| of them — exactly the round-robin split of kb serial arrivals. The
// per-port counts propagate through the DAG in topological order, and each
// sink hands out its values with a single fetch-and-add. Because every
// balancer transition is still one atomic operation that conserves tokens
// and splits them round-robin, interleaving concurrent Inc/IncBatch calls
// preserves the counting property, just as interleaved serial tokens do.
//
// The returned ranges carry the k values grouped by sink (Range.Count
// values each, RangeTotal(rs) == k). k ≤ 0 returns nil. IncBatch is safe
// for concurrent use with itself and with Inc/IncCtx/IncCAS.
func (n *Network) IncBatch(wire, k int) []Range {
	return n.IncBatchAppend(nil, wire, k)
}

// IncBatchAppend is IncBatch appending into dst, so a steady-state caller
// that recycles its result slice sweeps without allocating.
func (n *Network) IncBatchAppend(dst []Range, wire, k int) []Range {
	if k <= 0 {
		return dst
	}
	obs := n.obs
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
		obs.TokenEnter(wire)
	}
	bc := n.batchScratch.Get().(*batchCounts)
	pending, sinks := bc.pending, bc.sinks

	// Inject the batch at the input wire's target.
	toggles, bals, routes, hook := n.toggles, n.bals, n.routes, n.hook
	nonzero := 0
	if at := routes[reduceWire(wire, n.wIn)]; at < 0 {
		sinks[^at] += int64(k)
		nonzero++
	} else {
		pending[at] += int64(k)
	}

	// Propagate counts layer by layer. topo is a topological order, so by
	// the time a balancer is visited every predecessor has deposited into
	// it; ranges stay O(width) because counts, not tokens, move.
	for _, bi := range n.topo {
		kb := pending[bi]
		if kb == 0 {
			continue
		}
		pending[bi] = 0
		if hook != nil {
			hook(context.Background(), int(bi))
		}
		if obs != nil {
			obs.BalancerVisit(wire, int(bi))
		}
		b := &bals[bi]
		f := int64(b.fanOut)
		s := toggles[bi].v.Add(kb) - kb
		// Ports start, start+1, ..., start+r-1 (cyclically) get one token
		// beyond the q = ⌊kb/f⌋ every port gets.
		q, r := split(kb, b)
		start := portOf(s, b)
		for p := int64(0); p < f; p++ {
			c := q
			d := p - start
			if d < 0 {
				d += f
			}
			if d < r {
				c++
			}
			if c == 0 {
				continue
			}
			if at := b.next(p, routes); at < 0 {
				if sinks[^at] == 0 {
					nonzero++
				}
				sinks[^at] += c
			} else {
				pending[at] += c
			}
		}
	}

	// Drain the sinks: one fetch-and-add per contributing counter, and
	// re-zero the scratch for the next pooled use.
	out := dst
	if cap(out)-len(out) < nonzero {
		out = make([]Range, len(dst), len(dst)+nonzero)
		copy(out, dst)
	}
	stride := int64(n.wOut)
	for j := range sinks {
		c := sinks[j]
		if c == 0 {
			continue
		}
		sinks[j] = 0
		v := n.counters[j].v.Add(c*stride) - c*stride
		if obs != nil {
			obs.TokenExit(wire, j, v, time.Since(t0))
		}
		out = append(out, Range{First: v, Stride: stride, Count: c})
	}
	n.batchScratch.Put(bc)
	return out
}

// Mint is IncBatchAppend as a serving backend (server.Backend): a
// compiled network never runs out of values, so it never fails.
func (n *Network) Mint(dst []Range, wire, k int) ([]Range, error) {
	return n.IncBatchAppend(dst, wire, k), nil
}
