package client

import (
	"context"
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/flightrec"
	"repro/internal/wire"
)

// batchGroup is one set of SC increments that crosses the wire as a
// single TIncBatch. Callers claim arrival slots lock-free; results come
// back by arrival index; done is closed once vals/err are final, waking
// every waiter with one operation instead of one channel send per caller.
type batchGroup struct {
	// arrivals packs the claim counter with sealBit. A caller joins by
	// adding 1; the claimer that detaches the group from the batcher seals
	// it by adding sealBit, after which late adders retry on a fresh
	// group. Claims past the seal (or past BatchLimit) are abandoned —
	// the seal-time count minus the overshoot is the group's true size.
	arrivals atomic.Int32
	// wire is the input wire the combined frame enters on: the wire of
	// the caller that opened the group (whose mk installed it). An int32
	// fills the padding after arrivals, so the group stays 80 bytes.
	wire int32
	n    int     // final size, set once by the sealer
	vals []int64 // dealt values by arrival index, valid after done
	err  error   // group-wide failure, valid after done
	done chan struct{}

	// trace, when nonzero, marks the group sampled: its combined frame
	// carries the id and both sides record stage spans for it. born is
	// the group's creation stamp (ns), the client_combine span's start.
	trace uint64
	born  int64
}

const sealBit = int32(1) << 30

// batcher is one flat-combining point; a client has Options.Conns of
// them, one per pooled connection, and callers on every wire that maps
// to a batcher share it. Callers claim a slot in the open group with two
// atomic adds — no lock on the per-op path — and the caller that finds
// the batcher idle elects itself flusher with a CAS. The flusher issues
// one TIncBatch per group, on the wire of the caller that opened it,
// and, if callers kept arriving, hands off to a continuation goroutine
// so its own latency stays one round trip. At most one batch per batcher
// is in flight at a time; while it is out new callers accumulate, which
// is exactly what builds big batches under load. Different batchers
// flush concurrently.
type batcher struct {
	open     atomic.Pointer[batchGroup]
	inflight atomic.Bool
	nsealed  atomic.Int32 // len(sealed), readable without the lock
	mu       sync.Mutex   // guards sealed (touched once per full group)
	sealed   []*batchGroup
}

// incBatched submits one SC increment on wire w through batcher
// w % Conns and waits for its dealt-out value. Should w open the group,
// the whole group enters on w.
func (c *Client) incBatched(ctx context.Context, w int) (int64, error) {
	b := &c.batchers[w%len(c.batchers)]
	g, idx := b.join(c.opt.BatchLimit, func() *batchGroup { return c.newGroup(w) })
	if b.inflight.CompareAndSwap(false, true) {
		b.settle()
		c.flushOnce(b)
	}
	return waitInc(ctx, g, idx)
}

// newGroup builds a fresh batch group entering on wire w and samples it:
// the group is the unit that crosses the wire, so it is also the unit of
// tracing. With sampling off this is one nil check beyond the allocation.
func (c *Client) newGroup(w int) *batchGroup {
	g := &batchGroup{wire: int32(w), done: make(chan struct{})}
	if id := c.sampler.Sample(); id != 0 {
		g.trace = id
		g.born = c.clk.Now().UnixNano()
	}
	return g
}

// join claims an arrival slot in the batcher's open group, installing a
// fresh group (built by mk) when none is open and retrying when a
// concurrent sealer won the race for the slot.
func (b *batcher) join(limit int, mk func() *batchGroup) (*batchGroup, int) {
	for {
		g := b.open.Load()
		if g == nil {
			ng := mk()
			if !b.open.CompareAndSwap(nil, ng) {
				continue
			}
			g = ng
		}
		a := g.arrivals.Add(1)
		if a&sealBit != 0 || int(a) > limit {
			continue // sealed (or full) under us; retry on a fresh group
		}
		if int(a) == limit && b.open.CompareAndSwap(g, nil) {
			// This claim filled the group: detach and seal it now so the
			// flusher never carries more than BatchLimit in one frame.
			b.seal(g, limit)
			b.mu.Lock()
			b.sealed = append(b.sealed, g)
			b.mu.Unlock()
			b.nsealed.Add(1)
		}
		return g, int(a) - 1
	}
}

// seal freezes a detached group's membership and records its final size.
func (b *batcher) seal(g *batchGroup, limit int) {
	count := int(g.arrivals.Add(sealBit) &^ sealBit)
	if count > limit {
		count = limit // overshooting claimers retried elsewhere
	}
	g.n = count
}

// waitInc blocks until the flusher closes the group. Delivery is
// guaranteed even across client close — the flusher always finishes the
// group, with an error if the connection is gone — so the only other exit
// is the caller's own context.
func waitInc(ctx context.Context, g *batchGroup, idx int) (int64, error) {
	if done := ctx.Done(); done != nil {
		select {
		case <-g.done:
		case <-done:
			// The flusher will still finish the group; the value dealt to
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

// flushOnce runs one combined flush — the lead caller's own round trip.
// If callers queued up behind the batch, a continuation goroutine keeps
// flushing until the batcher goes idle again. The caller must hold the
// inflight flag.
func (c *Client) flushOnce(b *batcher) {
	g := b.take(c.opt.BatchLimit)
	if g == nil {
		if b.release() {
			go c.flushLoop(b)
		}
		return
	}
	c.sendGroup(g)
	if b.pending() || b.release() {
		go c.flushLoop(b)
	}
}

// pending reports whether any claim is waiting for a flusher. Joining
// always makes open non-nil (or lands the group in the sealed list)
// before the claimer tries to elect itself, so a flusher that checks
// pending after giving up the flag cannot miss a caller.
func (b *batcher) pending() bool {
	return b.open.Load() != nil || b.nsealed.Load() > 0
}

// flushLoop drains a busy batcher: one batch per round trip until no
// caller is waiting. Under sustained load this goroutine is the
// batcher's standing combiner; it exits the moment the batcher goes
// idle. The goroutine owns the inflight flag.
func (c *Client) flushLoop(b *batcher) {
	for {
		b.settle()
		g := b.take(c.opt.BatchLimit)
		if g == nil {
			if !b.release() {
				return
			}
			continue // late arrival slipped in; stay the flusher
		}
		c.sendGroup(g)
	}
}

// release gives up the inflight flag, then re-elects the caller as
// flusher if a claim arrived in the window between the last take and the
// handover — the claimer that lost its CAS during that window would
// otherwise wait on a group no one flushes. Reports whether the caller
// is the flusher again.
func (b *batcher) release() bool {
	b.inflight.Store(false)
	return b.pending() && b.inflight.CompareAndSwap(false, true)
}

// settle yields the processor while callers are still joining the open
// group. A completed batch wakes its whole herd at once; flushing before
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

// take removes the oldest waiting group, sealing the open one, or
// returns nil when no caller is queued.
func (b *batcher) take(limit int) *batchGroup {
	var g *batchGroup
	if b.nsealed.Load() > 0 {
		b.mu.Lock()
		if len(b.sealed) > 0 {
			g = b.sealed[0]
			copy(b.sealed, b.sealed[1:])
			b.sealed = b.sealed[:len(b.sealed)-1]
			b.nsealed.Add(-1)
		}
		b.mu.Unlock()
	}
	if g == nil {
		if g = b.open.Swap(nil); g == nil {
			return nil
		}
		b.seal(g, limit)
	}
	if g.n == 0 {
		// Raced a claimer that had not finished joining; the claimer saw
		// the seal and is retrying on a fresh group.
		return nil
	}
	return g
}

// sendGroup issues one TIncBatch for the group on its opener's wire and
// deals the returned values out by arrival index. Safe for per-process
// ordering despite concurrent flushes on other batchers: a caller's next
// increment is only submitted after this one's value arrives, so its
// batch is issued strictly later.
func (c *Client) sendGroup(g *batchGroup) {
	w := int64(g.wire)
	req := wire.Frame{
		Type:  wire.TIncBatch,
		Wire:  w,
		K:     int64(g.n),
		Mode:  wire.ModeSC,
		Trace: g.trace,
	}
	// Traced groups record their three client stages: combine (birth →
	// handed to the connection), RPC (transport + server), complete
	// (response decoded → values dealt).
	var sendNS int64
	if g.trace != 0 {
		sendNS = c.clk.Now().UnixNano()
		c.flight.RecordNS(g.trace, flightrec.StageClientCombine, 0, w, g.born, sendNS)
	}
	f, err := c.request(context.Background(), req)
	var doneNS int64
	if g.trace != 0 {
		doneNS = c.clk.Now().UnixNano()
		c.flight.RecordNS(g.trace, flightrec.StageClientRPC, 0, w, sendNS, doneNS)
	}
	if err != nil {
		g.err = err
		close(g.done)
		return
	}
	g.vals = make([]int64, 0, g.n)
	for _, r := range f.Rs {
		for off := int64(0); off < r.Count && len(g.vals) < g.n; off++ {
			g.vals = append(g.vals, r.First+off*r.Stride)
		}
	}
	if len(g.vals) < g.n {
		g.err = wire.ErrBadFrame
	}
	if g.trace != 0 {
		c.flight.RecordNS(g.trace, flightrec.StageClientComplete, 0, w, doneNS, c.clk.Now().UnixNano())
	}
	close(g.done)
}
