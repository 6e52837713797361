package client

import (
	"context"
	"errors"
	stdruntime "runtime"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/flightrec"
	"repro/internal/wire"
)

// batchGroup is one set of increments of one mode that crosses the wire
// as a single TIncBatch. Callers claim arrival slots lock-free; results
// come back by arrival index; done is closed once vals/err are final,
// waking every waiter with one operation instead of one channel send per
// caller.
type batchGroup struct {
	// arrivals packs the claim counter with sealBit. It starts at 1: the
	// caller that installs the group (its opener) holds slot 0. A caller
	// joins by adding 1; the opener seals the group by adding sealBit,
	// after which late adders retry on a fresh group. Claims past the seal
	// (or past BatchLimit) are abandoned — the seal-time count minus the
	// overshoot is the group's true size.
	arrivals atomic.Int32
	// wire is the input wire the combined frame enters on: the opener's.
	// wire, n and mode share the word after arrivals, so the group stays
	// 80 bytes.
	wire int32
	n    int32     // final size, set once by the opener's seal
	mode wire.Mode // every member's mode, sent in the frame
	vals []int64   // dealt values by arrival index, valid after done
	err  error     // group-wide failure, valid after done
	done chan struct{}

	// trace, when nonzero, marks the group sampled: its combined frame
	// carries the id and both sides record stage spans for it. born is
	// the group's creation stamp (ns), the client_combine span's start.
	trace uint64
	born  int64
}

const sealBit = int32(1) << 30

// batcher is one flat-combining point. A client has exactly two, one per
// mode, and callers on every wire share their mode's. SC and LIN never
// share a batcher, so never a frame: in a cluster the LIN frame's sweep
// is one grant from the leader's frontier while SC is minted from the
// node's own block. Callers
// claim a slot in the open group with one atomic add — no lock on the
// per-op path. The caller that opens a group sends it: it waits for the
// batcher's turn, seals the group and issues one TIncBatch on its own
// wire and the pool's next connection. So at most one frame per mode is
// in flight; while it is out new callers accumulate behind the next
// opener, which is exactly what builds big batches under load.
type batcher struct {
	open atomic.Pointer[batchGroup]
	turn chan struct{} // capacity 1: holding its slot is the turn to send
}

// incBatched submits one increment on wire w through its mode's batcher
// and waits for its dealt-out value. Should w open the group, the whole
// group enters on w. Any mode but SC is LIN.
func (c *Client) incBatched(ctx context.Context, w int, mode wire.Mode) (int64, error) {
	if mode != wire.ModeSC {
		mode = wire.ModeLIN
	}
	b := &c.batchers[mode]
	for {
		g, idx := b.join(c.opt.BatchLimit, func() *batchGroup { return c.newGroup(w, mode) })
		if idx == 0 && !c.send(ctx, b, g) {
			return 0, fault.FromContext(ctx.Err())
		}
		v, err := waitInc(ctx, g, idx)
		if err != errRegroup {
			return v, err
		}
		if err := ctx.Err(); err != nil {
			return 0, fault.FromContext(err)
		}
	}
}

// errRegroup closes a group whose opener gave up before its turn came:
// nothing was sent for it, so its members join a later group.
var errRegroup = errors.New("client: batch group dropped unsent")

// send is the opener's part: wait for the batcher's turn, seal the group
// and send it. Once it holds the turn it sends even if its own context
// ends, since every other member waits on this group. Should its context
// end while the previous frame is still out, it seals the group unsent
// and closes it with errRegroup instead, and reports false.
func (c *Client) send(ctx context.Context, b *batcher, g *batchGroup) bool {
	select {
	case b.turn <- struct{}{}:
	default:
		select {
		case b.turn <- struct{}{}:
		case <-ctx.Done():
			b.seal(g, c.opt.BatchLimit)
			g.err = errRegroup
			close(g.done)
			return false
		}
	}
	b.settle()
	b.seal(g, c.opt.BatchLimit)
	c.sendGroup(g)
	<-b.turn
	return true
}

// newGroup builds a fresh batch group of one mode entering on wire w,
// its opener's slot already claimed, and samples it: the group is the
// unit that crosses the wire, so it is also the unit of tracing. With
// sampling off this is one nil check beyond the allocation.
func (c *Client) newGroup(w int, mode wire.Mode) *batchGroup {
	g := &batchGroup{wire: int32(w), mode: mode, done: make(chan struct{})}
	g.arrivals.Store(1)
	if id := c.sampler.Sample(); id != 0 {
		g.trace = id
		g.born = c.clk.Now().UnixNano()
	}
	return g
}

// join claims an arrival slot in the batcher's open group, or installs a
// fresh group (built by mk) and holds its slot 0 when none is open. A
// group that a claim fills to limit is detached at once, so no frame
// carries more than limit increments; a group of limit 1 is never
// installed at all.
func (b *batcher) join(limit int, mk func() *batchGroup) (*batchGroup, int) {
	for {
		g := b.open.Load()
		if g == nil {
			ng := mk()
			if limit > 1 && !b.open.CompareAndSwap(nil, ng) {
				continue
			}
			return ng, 0
		}
		a := g.arrivals.Add(1)
		if a&sealBit != 0 || int(a) > limit {
			continue // sealed (or full) under us; retry on a fresh group
		}
		if int(a) == limit {
			b.open.CompareAndSwap(g, nil) // full: its opener seals it on its turn
		}
		return g, int(a) - 1
	}
}

// seal detaches the opener's group if it is still open, freezes its
// membership and records its final size.
func (b *batcher) seal(g *batchGroup, limit int) {
	b.open.CompareAndSwap(g, nil)
	count := int(g.arrivals.Add(sealBit) &^ sealBit)
	if count > limit {
		count = limit // overshooting claimers retried elsewhere
	}
	g.n = int32(count)
}

// waitInc blocks until the opener closes the group. Delivery is
// guaranteed even across client close — the opener always finishes the
// group, with an error if the connection is gone or errRegroup if it
// gave up unsent — so the only other exit is the caller's own context.
func waitInc(ctx context.Context, g *batchGroup, idx int) (int64, error) {
	if done := ctx.Done(); done != nil {
		select {
		case <-g.done:
		case <-done:
			// The opener will still finish the group; the value dealt to
			// this index is abandoned — a gap, never a duplicate.
			return 0, fault.FromContext(ctx.Err())
		}
	} else {
		// Non-cancellable caller: a plain receive skips the select
		// machinery — and, with thousands of concurrent callers, the lock
		// contention on a shared ctx.Done channel.
		<-g.done
	}
	if g.err != nil {
		return 0, g.err
	}
	return g.vals[idx], nil
}

// settle yields the processor while callers are still joining the open
// group. A completed batch wakes its whole herd at once; sending before
// the herd has re-enqueued would cut every batch to half the window
// (half in flight, half waking — the classic double buffer). The loop is
// bounded: it exits the first time a yield adds no caller.
func (b *batcher) settle() {
	prev := int32(-1)
	for {
		var n int32
		if g := b.open.Load(); g != nil {
			n = g.arrivals.Load()
		}
		if n == prev {
			return
		}
		prev = n
		stdruntime.Gosched()
	}
}

// sendGroup issues one TIncBatch for the group on its opener's wire and
// deals the returned values out by arrival index. Safe for per-process
// ordering despite a concurrent send on the other batcher: a caller's next
// increment is only submitted after this one's value arrives, so its
// batch is issued strictly later. The same argument makes a combined LIN
// frame linearizable: every member was invoked before the frame was sent
// and answers after its reply, so the members overlap and any order
// among them is legal, while an op invoked after that reply can only
// join a later frame, which the server sweeps after this one.
func (c *Client) sendGroup(g *batchGroup) {
	w := int64(g.wire)
	m := uint8(g.mode)
	req := wire.Frame{
		Type:  wire.TIncBatch,
		Wire:  w,
		K:     int64(g.n),
		Mode:  g.mode,
		Trace: g.trace,
	}
	// Traced groups record their three client stages: combine (birth →
	// handed to the connection), RPC (transport + server), complete
	// (response decoded → values dealt).
	var sendNS int64
	if g.trace != 0 {
		sendNS = c.clk.Now().UnixNano()
		c.flight.RecordNS(g.trace, flightrec.StageClientCombine, m, w, g.born, sendNS)
	}
	f, err := c.request(context.Background(), req)
	var doneNS int64
	if g.trace != 0 {
		doneNS = c.clk.Now().UnixNano()
		c.flight.RecordNS(g.trace, flightrec.StageClientRPC, m, w, sendNS, doneNS)
	}
	if err != nil {
		g.err = err
		close(g.done)
		return
	}
	n := int(g.n)
	g.vals = make([]int64, 0, n)
	for _, r := range f.Rs {
		for off := int64(0); off < r.Count && len(g.vals) < n; off++ {
			g.vals = append(g.vals, r.First+off*r.Stride)
		}
	}
	if len(g.vals) < n {
		g.err = wire.ErrBadFrame
	}
	if g.trace != 0 {
		c.flight.RecordNS(g.trace, flightrec.StageClientComplete, m, w, doneNS, c.clk.Now().UnixNano())
	}
	close(g.done)
}
