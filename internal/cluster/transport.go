package cluster

import (
	"context"
	"fmt"

	"repro/internal/client"
	"repro/internal/fault"
	"repro/internal/wire"
)

// HandlePeer answers one peer request (TGossip or TRangeRequest) for
// the serving door. A grant runs under the node mutex, and only while
// this node holds the lease — which makes the mutex the leader's
// per-epoch serialization point: SC blocks, LIN sweeps and membership
// merges all pass through it in one total order. The lease fences the
// grant, and the reply carries no epoch: a grant lies inside its
// epoch's stripe, so its epoch is Rs[0].First >> StripeShift.
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
		n.ms.merge(d, n.cfg.Clock.Now())
		ack := n.ms.digest()
		n.mu.Unlock()
		return wire.Frame{Type: wire.TGossipAck, Data: ack.encode()}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.leaseLocked(n.cfg.Clock.Now()) {
		n.cfg.Stats.NotLeader.Add(1)
		return errorFrame(wire.ErrNotLeader)
	}
	if f.Type != wire.TRangeRequest {
		return errorFrame(wire.ErrBadFrame)
	}
	r, err := n.alloc.grant(f.Node, f.K)
	if err != nil {
		return errorFrame(wire.ErrNoRange)
	}
	n.cfg.Stats.Grants.Add(1)
	return wire.Frame{Type: wire.TRangeGrant, Rs: []wire.Range{r}}
}

// errorFrame builds the TError reply for a sentinel.
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
