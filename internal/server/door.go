package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"repro/internal/wire"
)

// conn is one TCP connection: a reader goroutine (the door) that turns
// each request frame into a mailbox post or an immediate reply, and a
// writer goroutine (writer.go) that batches and flushes the replies.
type conn struct {
	s    *Server
	id   int
	nc   net.Conn
	out  chan outMsg
	dead chan struct{}
	die  sync.Once

	inSeq, outSeq int // frame-fault sequence numbers (single-threaded each)
}

// serveConn registers a connection on nc and starts its reader and
// writer. Once Close has begun it closes nc instead and returns false.
func (s *Server) serveConn(nc net.Conn) bool {
	c := &conn{s: s, nc: nc, out: make(chan outMsg, s.opt.OutQueue), dead: make(chan struct{})}
	if !s.register(func() {
		c.id = s.connSeq
		s.connSeq++
		s.conns[c] = struct{}{}
		s.readerWg.Add(1)
		s.writerWg.Add(1)
	}) {
		_ = nc.Close()
		return false
	}
	if st := s.opt.Stats; st != nil {
		st.connsTotal.Add(1)
		st.connsActive.Add(1)
	}
	go c.readLoop()
	go c.writeLoop()
	return true
}

// markDead abandons the connection: pending responses are discarded, the
// socket is closed and the connection unregistered. Used for protocol
// violations, overflow and client disconnects — never for server Close,
// which drains instead.
func (c *conn) markDead() {
	c.die.Do(func() {
		close(c.dead)
		_ = c.nc.Close()
		s := c.s
		s.mu.Lock()
		_, present := s.conns[c]
		delete(s.conns, c)
		s.mu.Unlock()
		if st := s.opt.Stats; present && st != nil {
			st.connsActive.Add(-1)
		}
	})
}

// trySend queues a response without ever blocking the caller (the
// sweeper must not stall on one slow client): a full queue kills the connection.
func (c *conn) trySend(m outMsg) {
	select {
	case <-c.dead:
		return
	default:
	}
	select {
	case c.out <- m:
	case <-c.dead:
	default:
		if st := c.s.opt.Stats; st != nil {
			st.evictions.Add(1)
		}
		c.s.anomaly("eviction", m.f.Trace)
		c.markDead()
	}
}

// faults is the transport seam: every frame the connection reads or
// writes consults Options.Faults, so a seeded schedule (internal/dst's
// frame faults) can drop, delay or duplicate traffic without touching the protocol or the kernel. It
// counts the injected fault, waits out its delay (cut short by Close),
// and returns how many times the frame goes through — 0 dropped, 1, or 2
// duplicated. Without Faults it returns 1.
func (c *conn) faults(inbound bool) int {
	ff := c.s.opt.Faults
	if ff == nil {
		return 1
	}
	seq := &c.outSeq
	if inbound {
		seq = &c.inSeq
	}
	fa := ff.Frame(c.id, inbound, *seq)
	*seq++
	if st := c.s.opt.Stats; st != nil {
		if fa.Drop {
			st.faultDropped.Add(1)
		}
		if fa.Duplicate {
			st.faultDuplicated.Add(1)
		}
		if fa.Delay > 0 {
			st.faultDelayed.Add(1)
		}
	}
	if fa.Delay > 0 {
		t := c.s.clk.NewTimer(fa.Delay)
		select {
		case <-t.C():
		case <-c.s.done:
		}
		t.Stop()
	}
	switch {
	case fa.Drop:
		return 0
	case fa.Duplicate:
		return 2
	}
	return 1
}

func (c *conn) readLoop() {
	defer c.s.readerWg.Done()
	br := bufio.NewReaderSize(c.nc, 32<<10)
	// One frame and one scratch buffer recycled for the connection's whole
	// life: the read path performs zero steady-state allocations. process
	// copies what it keeps, so reuse is safe.
	var f wire.Frame
	var scratch []byte
	for {
		if err := wire.ReadFrameInto(br, &f, &scratch); err != nil {
			if !c.s.closing.Load() {
				c.markDead()
			}
			return
		}
		if st := c.s.opt.Stats; st != nil {
			st.framesIn.Add(1)
		}
		for n := c.faults(true); n > 0; n-- {
			c.process(&f)
		}
	}
}

// peerHandler is the optional form of Options.LIN that also answers the
// cluster's peer opcodes: a cluster.Node is both the LIN backend and the
// handler. The door calls it on the reader goroutine, never through a
// mailbox, so a node whose LIN sweeper waits on a grant still gossips,
// grants and renews its lease. HandlePeer must not retain f.
type peerHandler interface {
	HandlePeer(f *wire.Frame) wire.Frame
}

// process handles one request frame on the reader goroutine. It must not
// retain f — the reader recycles it for the next frame.
func (c *conn) process(f *wire.Frame) {
	s := c.s
	st := s.opt.Stats
	switch f.Type {
	case wire.THello:
		c.trySend(outMsg{f: wire.Frame{Type: wire.TShape, ID: f.ID, Trace: f.Trace, Shape: s.shape}})
	case wire.TRead:
		c.trySend(outMsg{f: wire.Frame{Type: wire.TValue, ID: f.ID, Trace: f.Trace, Value: s.issued.Load()}})
	case wire.TInc, wire.TIncBatch:
		k := int64(1)
		batch := f.Type == wire.TIncBatch
		if batch {
			k = f.K
		}
		if !s.shape.Contains(f.Wire) {
			if st != nil {
				st.badWire.Add(1)
			}
			s.anomaly("error_frame", f.Trace)
			c.trySend(errFrame(f.ID, f.Trace, fmt.Errorf("%w: wire %d, width %d", wire.ErrBadWire, f.Wire, s.shape.Width)))
			return
		}
		// Propagate the client's trace context, or server-sample one for
		// untraced increments when the operator turned that on.
		trace := f.Trace
		if trace == 0 {
			trace = s.sampler.Sample()
		}
		if k == 0 {
			c.trySend(outMsg{f: wire.Frame{Type: wire.TRanges, ID: f.ID, Trace: trace, Rs: []wire.Range{}}})
			return
		}
		var mode uint8
		if f.Mode == wire.ModeLIN || s.opt.ForceLIN {
			mode = 1
		}
		if !s.post(req{c: c, id: f.ID, wire: int(f.Wire), k: k, batch: batch, mode: mode, enq: s.clk.Now(), trace: trace}) {
			if st != nil {
				st.backpressure.Add(1)
			}
			s.anomaly("backpressure", trace)
			m := errFrame(f.ID, trace, wire.ErrBackpressure)
			m.mode = mode
			if trace != 0 {
				m.enqNS = s.clk.Now().UnixNano()
			}
			c.trySend(m)
		}
	case wire.TGossip, wire.TRangeRequest:
		if s.peer != nil {
			resp := s.peer.HandlePeer(f)
			resp.ID, resp.Trace = f.ID, f.Trace
			c.trySend(outMsg{f: resp})
			return
		}
		fallthrough
	default:
		s.anomaly("error_frame", f.Trace)
		c.trySend(errFrame(f.ID, f.Trace, fmt.Errorf("%w: %v is not a request", wire.ErrBadFrame, f.Type)))
	}
}
