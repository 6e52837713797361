package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// Node is one countd's cluster half: it gossips membership and obtains
// epoch-fenced id grants from the leader, blocks for the local Minter
// and exactly k ids for each LIN sweep. It deliberately knows nothing
// about the client-facing server; cmd/countd plugs the two together
// through hooks, and the server's door hands the node its peers'
// requests.
type Node struct {
	cfg    Config
	minter *Minter

	mu        sync.Mutex
	ms        *membership
	alloc     *allocator // non-nil while this node claims leadership
	electedAt time.Time  // when this node started its current term
	seeds     []string   // contact addresses, self excluded
	// peers holds one pipelined client per peer serving address, made on
	// the first call to it (transport.go); nil once the node has shut down.
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
	for _, s := range cfg.Seeds {
		if s != cfg.Addr {
			n.seeds = append(n.seeds, s)
		}
	}
	n.minter = newMinter(cfg.Width, cfg.BlockSize, cfg.Stats, func(k int64) (wire.Range, error) {
		return n.grant(k, false)
	})
	now := cfg.Clock.Now()
	self := Member{
		ID:   cfg.NodeID,
		Addr: cfg.Addr,
		// A restart starts a strictly higher incarnation than any
		// earlier life could have gossiped (the clock only moves forward),
		// so stale rumours about the old life cannot shadow the new one.
		Incarnation: uint64(now.UnixNano()),
	}
	n.ms = newMembership(self, now, cfg.suspectAfter(), cfg.deadAfter())
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
	cl := n.ms.claim
	if cl.Term == 0 {
		return 0
	}
	return EpochOf(cl.Term, cl.Leader)
}

// Leader returns the current view's leader id and cluster address.
func (n *Node) Leader() (id uint64, addr string, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cl := n.ms.claim
	if cl.Term == 0 {
		return 0, "", false
	}
	return cl.Leader, cl.Addr, true
}

// IsLeader reports whether this node currently holds the leader lease.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaseLocked(n.cfg.Clock.Now())
}

// quorum is the majority of the seeded cluster size.
func (n *Node) quorum() int { return n.cfg.ExpectedPeers/2 + 1 }

// leaseLocked reports whether this node may act as leader right now: it
// must be the claimed leader of the current term, hold the matching
// allocator, and be backed by a majority of direct, mature, fresh
// endorsements of exactly this claim.
//
// The endorsement rules are the fence that keeps cluster-wide LIN
// monotone (id uniqueness needs none of this — epoch stripes guarantee
// it unconditionally). A peer's terms only ever rise, so once it
// endorses a higher term it never again backs a lower one. Any lease the
// old leader can still assemble therefore rests on statements the
// switching peer made before it adopted the new claim; those statements
// were generated at most RPCTimeout before they merged and expire
// leaseTimeout after, so the old lease is provably dead once the new
// claim has been endorsed for RPCTimeout+leaseTimeout — exactly the
// maturity both the leader's own tenure (electedAt) and every counted
// endorsement must reach. Majorities intersect, so the two leases can
// never overlap: the SC-vs-LIN gap stays honest across elections.
func (n *Node) leaseLocked(now time.Time) bool {
	cl := n.ms.claim
	if cl.Term == 0 || cl.Leader != n.cfg.NodeID || n.alloc == nil {
		return false
	}
	if n.alloc.epoch != EpochOf(cl.Term, cl.Leader) {
		return false
	}
	aging := n.cfg.RPCTimeout + n.cfg.leaseTimeout()
	if now.Sub(n.electedAt) < aging {
		return false // a predecessor's lease may not have lapsed yet
	}
	return 1+n.ms.endorseCount(cl, now, n.cfg.leaseTimeout(), aging) >= n.quorum()
}

// electLocked advances the leadership state machine one step. Called on
// every gossip tick, under the node mutex.
func (n *Node) electLocked(now time.Time) {
	cl := n.ms.claim
	if cl.Term > 0 && cl.Leader == n.cfg.NodeID {
		if n.alloc != nil && n.alloc.epoch == EpochOf(cl.Term, cl.Leader) {
			return // our own claim, allocator continuity intact
		}
		// A claim naming us that we hold no allocator for is a ghost of a
		// previous incarnation: we crashed and rejoined inside our own
		// term, and the old allocator's cursor died with us. Rebuilding it
		// at the old epoch would re-mint that stripe from zero — duplicate
		// ids. Supersede the ghost with a fresh term (fresh stripe) once a
		// majority is fresh enough to propagate it; until then we hold no
		// lease and refuse leadership work.
		if n.ms.freshCount(now, n.cfg.leaseTimeout()) < n.quorum() {
			return
		}
		n.startTermLocked(now, "superseding own ghost claim of term %d", cl.Term)
		return
	}
	if n.alloc != nil {
		// A higher-term claim deposed us.
		n.cfg.Logf("cluster: node %d deposed by term %d leader %d", n.cfg.NodeID, cl.Term, cl.Leader)
		n.alloc = nil
	}
	if cl.Term > 0 {
		if mi, ok := n.ms.members[cl.Leader]; ok && n.ms.state(mi, now) == StateAlive {
			return // healthy leader exists; follow it
		}
	}
	// No live claimant. Elect ourselves only if enough of the seeded
	// cluster is known (a node booting alone must meet its peers first),
	// we are the minimal alive id, and a majority is fresh enough that
	// the new term will propagate.
	if len(n.ms.members) < n.quorum() {
		return
	}
	alive := n.ms.alive(now)
	if len(alive) == 0 || alive[0] != n.cfg.NodeID {
		return
	}
	if n.ms.freshCount(now, n.cfg.leaseTimeout()) < n.quorum() {
		return
	}
	n.startTermLocked(now, "no live claimant")
}

// startTermLocked begins a fresh term with this node as leader: a new
// epoch, a new allocator over that epoch's untouched stripe. The lease
// stays fenced until the term has aged RPCTimeout+leaseTimeout and a
// majority's endorsements of it have matured the same way (leaseLocked).
// The why is for the transition log only.
func (n *Node) startTermLocked(now time.Time, why string, args ...any) {
	term := n.ms.claim.Term + 1 // the claim is the highest term this node has seen
	n.ms.claim = claim{Term: term, Leader: n.cfg.NodeID, Addr: n.cfg.Addr}
	n.alloc = newAllocator(EpochOf(term, n.cfg.NodeID), n.cfg.Audit)
	n.electedAt = now
	n.cfg.Stats.Elections.Add(1)
	n.cfg.Logf("cluster: node %d elected itself leader of term %d (epoch %d): %s",
		n.cfg.NodeID, term, EpochOf(term, n.cfg.NodeID), fmt.Sprintf(why, args...))
}

// gossipLoop is the node's single periodic actor: beat, elect, exchange
// tables with one peer, merge the reply.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	for round := 0; ; round++ {
		t := n.cfg.Clock.NewTimer(n.cfg.GossipEvery)
		select {
		case <-t.C():
		case <-n.closed:
			t.Stop()
			return
		}
		n.tick(round)
	}
}

// tick runs one gossip round.
func (n *Node) tick(round int) {
	n.mu.Lock()
	now := n.cfg.Clock.Now()
	n.ms.beat(now)
	n.electLocked(now)
	d := n.ms.digest()
	addr := n.pickPeerLocked(round, now)
	n.mu.Unlock()
	if addr == "" {
		return
	}
	n.cfg.Stats.GossipRounds.Add(1)
	resp, err := n.call(addr, wire.Frame{Type: wire.TGossip, Data: d.encode()})
	if err != nil {
		n.cfg.Stats.GossipFailures.Add(1)
		return
	}
	ack, err := decodeDigest(resp.Data)
	if err != nil {
		n.cfg.Stats.GossipFailures.Add(1)
		return
	}
	n.mu.Lock()
	n.ms.merge(ack, n.cfg.Clock.Now())
	n.mu.Unlock()
}

// pickPeerLocked chooses this round's gossip target: round-robin over
// the known live peers (sorted ids — nothing iterates maps), falling
// back to the seed list while the table is still just us.
func (n *Node) pickPeerLocked(round int, now time.Time) string {
	var peers []string
	for _, id := range n.ms.sortedIDs() {
		if id == n.cfg.NodeID {
			continue
		}
		mi := n.ms.members[id]
		if n.ms.state(mi, now) != StateDead {
			peers = append(peers, mi.Addr)
		}
	}
	if len(peers) == 0 {
		peers = n.seeds
	}
	if len(peers) == 0 {
		return ""
	}
	return peers[round%len(peers)]
}

// grant obtains k fresh ids from the leader's frontier, the one way ids
// leave the leader: an SC block for the minter (lin false) or exactly a
// LIN sweep's k. On the lease holder it is alloc.grant under the node
// mutex, anywhere else one TRangeRequest to the leader. Within an epoch
// every grant lies above every earlier one, so a LIN sweep lies above
// every value already handed out of the epoch, SC values included. A
// failure wraps the refusal its caller's clients advance on:
// wire.ErrNoRange for a block, wire.ErrNotLeader for a LIN sweep that
// finds no leader or cannot reach it.
func (n *Node) grant(k int64, lin bool) (wire.Range, error) {
	st, refuse := n.cfg.Stats, wire.ErrNoRange
	if lin {
		refuse = wire.ErrNotLeader
	} else {
		st.RangeRequests.Add(1)
	}
	n.mu.Lock()
	if n.leaseLocked(n.cfg.Clock.Now()) {
		r, err := n.alloc.grant(n.cfg.NodeID, k)
		n.mu.Unlock()
		if err != nil {
			return wire.Range{}, fmt.Errorf("%w: %v", wire.ErrNoRange, err)
		}
		st.Grants.Add(1)
		if lin {
			st.LinServed.Add(1)
		}
		return r, nil
	}
	cl := n.ms.claim
	n.mu.Unlock()
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
