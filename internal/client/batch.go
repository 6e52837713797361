package client

import (
	"context"
	"errors"
	stdruntime "runtime"
	"sync"

	"repro/internal/fault"
	"repro/internal/flightrec"
	"repro/internal/wire"
)

// batchGroup is one set of increments of one mode that crosses the wire
// as a single TIncBatch. done is closed once vals/err are final, waking
// every member at once.
type batchGroup struct {
	id   uint64    // its number in its batcher's combineState
	wire int32     // the input wire the combined frame enters on: the opener's
	n    int32     // final size, set once by the opener's seal
	mode wire.Mode // every member's mode, sent in the frame
	vals []int64   // dealt values by arrival index, valid after done
	err  error     // group-wide failure, valid after done
	done chan struct{}

	// trace, when nonzero, samples the group: its frame carries the id and
	// both sides record spans. born (ns) starts the client_combine span.
	trace uint64
	born  int64
}

// combineState is one mode's whole grouping rule, with no lock, channel
// or goroutine: the batcher carries out what its transitions return.
// Groups are numbered from 1 (0 names none). At most one is open, taking
// joiners, and at most one is out, its frame in flight: the mode's turn.
type combineState struct {
	limit          int    // BatchLimit: the most increments one frame carries
	seq, open, out uint64 // the last group opened, the open one, the out one
	n              int    // the open group's members so far
}

// join adds a caller to the open group, or opens one, and returns the
// group and the caller's arrival index; index 0 is the opener, which
// sends it. The join that fills a group to limit detaches it.
func (s *combineState) join() (g uint64, idx int) {
	if s.open == 0 {
		s.seq++
		s.open, s.n = s.seq, 0
	}
	g, idx = s.open, s.n
	if s.n++; s.n == s.limit {
		s.open = 0
	}
	return g, idx
}

// take gives g the turn if no frame is out, and reports whether it did.
func (s *combineState) take(g uint64) bool {
	ok := s.out == 0
	if ok {
		s.out = g
	}
	return ok
}

// seal freezes g's membership and returns its size: the open count if g
// is still open, which it detaches, else limit, since a group leaves the
// open slot before its seal only by filling up.
func (s *combineState) seal(g uint64) int {
	if s.open != g {
		return s.limit
	}
	s.open = 0
	return s.n
}

// sent ends the turn: the frame out has been answered.
func (s *combineState) sent() { s.out = 0 }

// cancel drops g unsent, its opener's context having ended before its
// turn came: g leaves the open slot, and its members join a later group.
func (s *combineState) cancel(g uint64) {
	if s.open == g {
		s.open = 0
	}
}

// batcher is one flat-combining point: a combineState under one lock and
// the groups it names. A client has two, one per mode, shared by callers
// on every wire; SC and LIN never share a frame (in a cluster they mint
// differently). While a frame is out, openers wait on its group's done
// and new callers accumulate behind them: big batches under load.
type batcher struct {
	mu        sync.Mutex
	st        combineState
	open, out *batchGroup // the groups st.open and st.out name
}

// incBatched submits one increment on wire w through its mode's batcher
// and waits for its value. Any mode but SC is LIN.
func (c *Client) incBatched(ctx context.Context, w int, mode wire.Mode) (int64, error) {
	if mode != wire.ModeSC {
		mode = wire.ModeLIN
	}
	b := &c.batchers[mode]
	for {
		g, idx := c.join(b, w, mode)
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

// join joins b's open group, or opens one entering on wire w, and
// returns it and the caller's index in it. A new group is sampled: it is
// the unit that crosses the wire, so also the unit of tracing.
func (c *Client) join(b *batcher, w int, mode wire.Mode) (*batchGroup, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id, idx := b.st.join()
	g := b.open
	if idx == 0 {
		g = &batchGroup{id: id, wire: int32(w), mode: mode, done: make(chan struct{})}
		if tid := c.sampler.Sample(); tid != 0 {
			g.trace, g.born = tid, c.clk.Now().UnixNano()
		}
	}
	b.track(g)
	return g, idx
}

// track keeps b.open naming st.open's group after a transition on g.
func (b *batcher) track(g *batchGroup) {
	if b.st.open == g.id {
		b.open = g
	} else if b.open == g {
		b.open = nil
	}
}

// send is the opener's part: take the turn, seal the group and send it.
// While another frame is out it waits on that group's done. Once it
// holds the turn it sends even if its own context ends, since every
// other member waits on this group. Should its context end while it
// waits, it drops the group unsent (errRegroup) and reports false.
func (c *Client) send(ctx context.Context, b *batcher, g *batchGroup) bool {
	b.mu.Lock()
	for !b.st.take(g.id) {
		out := b.out.done
		b.mu.Unlock()
		select {
		case <-out:
		case <-ctx.Done():
			b.mu.Lock()
			b.st.cancel(g.id)
			b.track(g)
			b.mu.Unlock()
			g.err = errRegroup
			close(g.done)
			return false
		}
		b.mu.Lock()
	}
	b.out = g
	b.mu.Unlock()
	b.settle()
	b.mu.Lock()
	g.n = int32(b.st.seal(g.id))
	b.track(g)
	b.mu.Unlock()
	c.sendGroup(b, g)
	return true
}

// waitInc blocks until the opener closes the group: it always does, with
// an error if the connection is gone or errRegroup if it gave up unsent,
// so the only other exit is the caller's own context.
func waitInc(ctx context.Context, g *batchGroup, idx int) (int64, error) {
	if done := ctx.Done(); done != nil {
		select {
		case <-g.done:
		case <-done:
			// The value dealt to this index is abandoned: a gap.
			return 0, fault.FromContext(ctx.Err())
		}
	} else {
		<-g.done // no select, nor its lock on a shared ctx.Done channel
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
	for prev := [2]uint64{^uint64(0)}; ; stdruntime.Gosched() {
		b.mu.Lock()
		now := [2]uint64{b.st.open, uint64(b.st.n)}
		b.mu.Unlock()
		if now == prev {
			return
		}
		prev = now
	}
}

// sendGroup issues one TIncBatch for the group on its opener's wire and
// deals the returned values out by arrival index. Every member joined
// before the seal, so it was invoked before the frame left and answers
// after its reply: the package doc's argument for both modes.
func (c *Client) sendGroup(b *batcher, g *batchGroup) {
	defer b.finish(g)
	w, m := int64(g.wire), uint8(g.mode)
	req := wire.Frame{Type: wire.TIncBatch, Wire: w, K: int64(g.n), Mode: g.mode, Trace: g.trace}
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
}

// finish ends b's turn, then wakes g's members: a woken opener finds the
// turn free rather than spinning on it.
func (b *batcher) finish(g *batchGroup) {
	b.mu.Lock()
	b.st.sent()
	b.out = nil
	b.mu.Unlock()
	close(g.done)
}
