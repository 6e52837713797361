package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// Node is one countd's cluster half: it gossips membership and obtains
// epoch-fenced id grants from the leader, blocks for the local Minter
// and exactly k ids for each LIN sweep. It knows nothing of the
// client-facing server, whose door hands it its peers' requests. The
// Node is the shell of one leadership value (lease.go): the mutex, the
// gossip timer, the peer clients, and what the transitions report.
type Node struct {
	cfg    Config
	minter *Minter

	mu   sync.Mutex
	lead leadership
	// peers holds one pipelined client per peer serving address, made on
	// the first call to it; nil once the node has shut down.
	peers map[string]*client.Client

	closed  chan struct{}
	closing atomic.Bool
	wg      sync.WaitGroup
}

// Start assembles and launches a cluster node: the gossip loop and a
// minter wired to the leader's allocator. The node opens no listener:
// its peers reach it at cfg.Addr, the serving door of a server whose LIN
// backend is the node.
func Start(cfg Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Width <= 0 {
		cfg.Width = 8
	}
	n := &Node{
		cfg:    cfg,
		closed: make(chan struct{}),
		peers:  make(map[string]*client.Client),
	}
	n.minter = newMinter(cfg.Width, cfg.BlockSize, cfg.Stats, func(k int64) (wire.Range, error) {
		return n.grant(k, false)
	})
	n.lead = newLeadership(cfg, cfg.Clock.Now())
	n.wg.Add(1)
	go n.gossipLoop()
	return n, nil
}

// Minter returns the node's counting backend for the serving layer.
func (n *Node) Minter() *Minter { return n.minter }

// ID returns the node's id.
func (n *Node) ID() uint64 { return n.cfg.NodeID }

// Epoch returns the epoch of the current leadership view (0: none).
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	cl := n.lead.ms.claim
	if cl.Term == 0 {
		return 0
	}
	return EpochOf(cl.Term, cl.Leader)
}

// Leader returns the current view's leader id and cluster address.
func (n *Node) Leader() (id uint64, addr string, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cl := n.lead.ms.claim
	if cl.Term == 0 {
		return 0, "", false
	}
	return cl.Leader, cl.Addr, true
}

// IsLeader reports whether this node currently holds the leader lease.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lead.held(n.cfg.Clock.Now())
}

// report counts and logs what a transition changed.
func (n *Node) report(t turn) {
	if cl := t.deposedBy; cl.Term > 0 {
		n.cfg.Logf("cluster: node %d deposed by term %d leader %d", n.cfg.NodeID, cl.Term, cl.Leader)
	}
	if t.term > 0 {
		n.cfg.Stats.Elections.Add(1)
		n.cfg.Logf("cluster: node %d elected itself leader of term %d (epoch %d): %s",
			n.cfg.NodeID, t.term, EpochOf(t.term, n.cfg.NodeID), t.why)
	}
}

// gossipLoop is the node's single periodic actor: each GossipEvery, the
// round's rule, then an exchange of tables with the peer it picked.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	for {
		tm := n.cfg.Clock.NewTimer(n.cfg.GossipEvery)
		select {
		case <-tm.C():
		case <-n.closed:
			tm.Stop()
			return
		}
		n.mu.Lock()
		d, addr, t := n.lead.tick(n.cfg.Clock.Now())
		n.mu.Unlock()
		n.report(t)
		if addr == "" {
			continue
		}
		n.cfg.Stats.GossipRounds.Add(1)
		resp, err := n.call(addr, wire.Frame{Type: wire.TGossip, Data: d.encode()})
		var ack digest
		if err == nil {
			ack, err = decodeDigest(resp.Data)
		}
		if err != nil {
			n.cfg.Stats.GossipFailures.Add(1)
			continue
		}
		n.mu.Lock()
		n.lead.merge(ack, n.cfg.Clock.Now())
		n.mu.Unlock()
	}
}

// serve is the leader's half of every grant, its own and its peers':
// lead.grant under the mutex, the leader's per-epoch serialization point.
// It also returns the claim, the leader to ask without the lease.
func (n *Node) serve(to uint64, k int64) (wire.Range, claim, error) {
	n.mu.Lock()
	r, t, err := n.lead.grant(to, k, n.cfg.Clock.Now())
	cl := n.lead.ms.claim
	n.mu.Unlock()
	n.report(t)
	if err == nil {
		n.cfg.Stats.Grants.Add(1)
	}
	return r, cl, err
}

// grant obtains k fresh ids from the leader's frontier: an SC block for
// the minter (lin false) or exactly a LIN sweep's k. On the lease holder
// it is serve, anywhere else one TRangeRequest to the leader. A failure
// wraps the refusal its caller's clients advance on: wire.ErrNoRange for
// a block, wire.ErrNotLeader for a LIN sweep that finds no leader or
// cannot reach it.
func (n *Node) grant(k int64, lin bool) (wire.Range, error) {
	st, refuse := n.cfg.Stats, wire.ErrNoRange
	if lin {
		refuse = wire.ErrNotLeader
	} else {
		st.RangeRequests.Add(1)
	}
	r, cl, err := n.serve(n.cfg.NodeID, k)
	if !errors.Is(err, wire.ErrNotLeader) {
		if err == nil && lin {
			st.LinServed.Add(1)
		}
		return r, err
	}
	if cl.Term == 0 || cl.Addr == "" || cl.Leader == n.cfg.NodeID {
		return wire.Range{}, fmt.Errorf("%w: no leader to grant from", refuse)
	}
	req := wire.Frame{Type: wire.TRangeRequest, Node: n.cfg.NodeID, K: k}
	start := n.cfg.Clock.Now()
	resp, err := n.call(cl.Addr, req)
	if lin {
		st.LinForwards.Add(1)
		st.FwdLatency.Record(0, n.cfg.Clock.Since(start))
	}
	if err != nil {
		if errors.Is(err, wire.ErrNotLeader) || errors.Is(err, wire.ErrNoRange) {
			return wire.Range{}, err // the leader already classified the refusal
		}
		// An unreachable leader is a retryable refusal, not a malformed
		// op: the caller's clients fail over or retry.
		return wire.Range{}, fmt.Errorf("%w: grant from %s: %v", refuse, cl.Addr, err)
	}
	if resp.Type != wire.TRangeGrant || len(resp.Rs) != 1 {
		return wire.Range{}, fmt.Errorf("cluster: unexpected grant reply %v", resp.Type)
	}
	return resp.Rs[0], nil
}

// HandlePeer answers the serving door's peer requests, TGossip and
// TRangeRequest; a grant is serve. The reply carries no epoch: a grant
// lies inside its epoch's stripe, so its epoch is Rs[0].First >> StripeShift.
func (n *Node) HandlePeer(f *wire.Frame) wire.Frame {
	if n.closing.Load() {
		return errorFrame(fault.ErrClosed) // a closed node refuses every peer request
	}
	if f.Type == wire.TGossip {
		d, err := decodeDigest(f.Data)
		if err != nil {
			return errorFrame(wire.ErrBadFrame)
		}
		n.mu.Lock()
		ack := n.lead.merge(d, n.cfg.Clock.Now())
		n.mu.Unlock()
		return wire.Frame{Type: wire.TGossipAck, Data: ack.encode()}
	}
	r, _, err := n.serve(f.Node, f.K)
	if err != nil {
		if errors.Is(err, wire.ErrNotLeader) {
			n.cfg.Stats.NotLeader.Add(1)
		}
		return errorFrame(err)
	}
	return wire.Frame{Type: wire.TRangeGrant, Rs: []wire.Range{r}}
}

// errorFrame builds the TError reply for err, coded by its sentinel.
func errorFrame(err error) wire.Frame {
	return wire.Frame{Type: wire.TError, Code: wire.CodeOf(err), Msg: err.Error()}
}

// call makes one request to the peer at addr on that peer's client: one
// attempt, never retried (a re-sent request would be granted twice),
// its reply awaited for at most RPCTimeout on the node's clock. A TError
// reply comes back as its sentinel, wrapped.
func (n *Node) call(addr string, req wire.Frame) (wire.Frame, error) {
	n.mu.Lock()
	pc := n.peers[addr]
	if pc == nil && n.peers != nil {
		pc = client.NewPeer(addr, client.Options{
			Clock:       n.cfg.Clock,
			DialTimeout: n.cfg.RPCTimeout,
			Dialer:      n.cfg.PeerDialer,
		})
		n.peers[addr] = pc
	}
	n.mu.Unlock()
	if pc == nil {
		return wire.Frame{}, client.ErrClosed
	}
	ctx, cancel := n.cfg.Clock.WithTimeout(context.Background(), n.cfg.RPCTimeout)
	defer cancel()
	resp, err := pc.Call(ctx, req)
	if err != nil {
		return resp, fmt.Errorf("cluster: peer %s: %w", addr, err)
	}
	return resp, nil
}

// Shape implements the server Backend contract: the minter's shape.
func (n *Node) Shape() network.Shape { return n.minter.Shape() }

// Mint implements the server Backend contract for the server's LIN
// sweeper (server Options.LIN), the node's one caller of it, so a node
// has at most one LIN grant in flight. It appends a LIN sweep's k values
// to dst as one grant of exactly k from the leader's frontier
// (Node.grant). A refusal, or a leader that cannot be reached, returns
// dst unchanged with the retryable wire.ErrNotLeader (or
// wire.ErrNoRange); the server sheds the sweep with it.
func (n *Node) Mint(dst []runtime.Range, _, k int) ([]runtime.Range, error) {
	r, err := n.grant(int64(k), true)
	if err != nil {
		return dst, err
	}
	return append(dst, runtime.Range{First: r.First, Stride: r.Stride, Count: r.Count}), nil
}

// Close shuts the node down: stop gossiping, close the minter, then close
// the peer clients. The unminted ids the node holds burn, as a crash's
// do: a gap, which SC counting tolerates, never a duplicate.
func (n *Node) Close() error {
	if !n.closing.CompareAndSwap(false, true) {
		return nil
	}
	close(n.closed)
	n.minter.close()
	// A call still in flight fails with client.ErrClosed.
	n.mu.Lock()
	peers := n.peers
	n.peers = nil
	n.mu.Unlock()
	for _, pc := range peers {
		_ = pc.Close()
	}
	n.wg.Wait()
	return nil
}
