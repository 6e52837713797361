package cluster

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// Node is one countd's cluster half: it gossips membership, obtains
// epoch-fenced id blocks for the local Minter, and serves or forwards
// LIN mints. It deliberately knows nothing about the client-facing
// server; cmd/countd plugs the two together through hooks.
type Node struct {
	cfg    Config
	minter *Minter
	ln     net.Listener

	mu        sync.Mutex
	ms        *membership
	alloc     *allocator // non-nil while this node claims leadership
	electedAt time.Time  // when this node started its current term
	linBlk    block      // leader-side LIN cursor (fresh-frontier blocks only)
	seeds     []string   // contact addresses, self excluded
	// conns tracks the live accepted transport conns, keyed by accept
	// ordinal; handleConn deletes its entry on exit, so a long-running
	// node does not retain one dead conn per connection-per-call RPC
	// ever served. The ordinal keys keep shutdown's close order
	// deterministic (nothing iterates a map in arbitrary order).
	conns   map[uint64]net.Conn
	connSeq uint64

	rangeMu sync.Mutex // serializes grant RPCs (refill + prefetch share one lane)

	closed  chan struct{}
	closing atomic.Bool
	wg      sync.WaitGroup
}

// Start assembles and launches a cluster node: the cluster listener, the
// gossip loop, and a minter wired to the leader's allocator.
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
		conns:  make(map[uint64]net.Conn),
	}
	for _, s := range cfg.Seeds {
		if s != cfg.Addr {
			n.seeds = append(n.seeds, s)
		}
	}
	n.minter = NewMinter(cfg.Width, cfg.BlockSize, cfg.Stats)
	n.minter.request = n.requestBlock
	now := cfg.Clock.Now()
	self := Member{
		ID:   cfg.NodeID,
		Addr: cfg.Addr,
		// A restart starts a strictly higher incarnation than any
		// earlier life could have gossiped (the clock only moves forward),
		// so stale rumours about the old life cannot shadow the new one.
		Incarnation: uint64(now.UnixNano()),
	}
	n.ms = newMembership(self, now, cfg.SuspectAfter, cfg.DeadAfter)
	ln, err := cfg.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", cfg.Addr, err)
	}
	n.ln = ln
	n.wg.Add(2)
	go n.acceptLoop()
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

// memberCounts tallies the membership view for the metrics surface.
func (n *Node) memberCounts() (alive, suspect, dead int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ms.counts(n.cfg.Clock.Now())
}

// Advertise is the server's Hello-extension hook: node id, current
// epoch view, and the unminted ranges this node holds.
func (n *Node) Advertise() (node, epoch uint64, rs []wire.Range) {
	return n.cfg.NodeID, n.Epoch(), n.minter.Owned()
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
// LeaseTimeout after, so the old lease is provably dead once the new
// claim has been endorsed for RPCTimeout+LeaseTimeout — exactly the
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
	aging := n.cfg.RPCTimeout + n.cfg.LeaseTimeout
	if now.Sub(n.electedAt) < aging {
		return false // a predecessor's lease may not have lapsed yet
	}
	return 1+n.ms.endorseCount(cl, now, n.cfg.LeaseTimeout, aging) >= n.quorum()
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
		if n.ms.freshCount(now, n.cfg.LeaseTimeout) < n.quorum() {
			return
		}
		n.startTermLocked(now, "superseding own ghost claim of term %d", cl.Term)
		return
	}
	if n.alloc != nil {
		// A higher-term claim deposed us.
		n.cfg.Logf("cluster: node %d deposed by term %d leader %d", n.cfg.NodeID, cl.Term, cl.Leader)
		n.alloc = nil
		n.linBlk = block{}
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
	if n.ms.freshCount(now, n.cfg.LeaseTimeout) < n.quorum() {
		return
	}
	n.startTermLocked(now, "no live claimant")
}

// startTermLocked begins a fresh term with this node as leader: a new
// epoch, a new allocator over that epoch's untouched stripe. The lease
// stays fenced until the term has aged RPCTimeout+LeaseTimeout and a
// majority's endorsements of it have matured the same way (leaseLocked).
// The why is for the transition log only.
func (n *Node) startTermLocked(now time.Time, why string, args ...any) {
	term := n.ms.maxTerm() + 1
	n.ms.claim = claim{Term: term, Leader: n.cfg.NodeID, Addr: n.cfg.Addr}
	n.alloc = newAllocator(EpochOf(term, n.cfg.NodeID), n.cfg.Audit)
	n.electedAt = now
	n.linBlk = block{}
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
	req := wire.Frame{Type: wire.TGossip, Data: d.encode()}
	resp, err := n.rpc(n.cfg.Dial(LaneGossip), addr, &req)
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

// requestBlock is the minter's range source: a local grant while
// leading, one TRangeRequest RPC to the leader otherwise.
func (n *Node) requestBlock(k int64) (wire.Range, uint64, error) {
	n.cfg.Stats.RangeRequests.Add(1)
	n.mu.Lock()
	now := n.cfg.Clock.Now()
	if n.leaseLocked(now) {
		r, err := n.alloc.grant(n.cfg.NodeID, k)
		epoch := n.alloc.epoch
		if err == nil {
			n.cfg.Stats.Grants.Add(1)
		}
		n.mu.Unlock()
		return r, epoch, err
	}
	cl := n.ms.claim
	n.mu.Unlock()
	if cl.Term == 0 || cl.Addr == "" || cl.Leader == n.cfg.NodeID {
		return wire.Range{}, 0, fmt.Errorf("%w: no leader to request a block from", wire.ErrNoRange)
	}
	req := wire.Frame{Type: wire.TRangeRequest, Node: n.cfg.NodeID,
		Epoch: EpochOf(cl.Term, cl.Leader), K: k}
	n.rangeMu.Lock()
	resp, err := n.rpc(n.cfg.Dial(LaneRange), cl.Addr, &req)
	n.rangeMu.Unlock()
	if err != nil {
		if errors.Is(err, wire.ErrNotLeader) || errors.Is(err, wire.ErrNoRange) {
			return wire.Range{}, 0, err
		}
		// An unreachable leader and an absent block look the same to the
		// mint that is waiting: a retryable range drought.
		return wire.Range{}, 0, fmt.Errorf("%w: grant rpc: %v", wire.ErrNoRange, err)
	}
	if resp.Type != wire.TRangeGrant || len(resp.Rs) != 1 {
		return wire.Range{}, 0, fmt.Errorf("cluster: unexpected grant reply %v", resp.Type)
	}
	return resp.Rs[0], resp.Epoch, nil
}

// linMintLocked serves k LIN mints at this node's serialization point.
// LIN blocks are drawn fresh from the frontier (never from returned
// remainders), so successive LIN values are strictly increasing within
// an epoch; across elections the new epoch's stripe starts above every
// id the old one could grant — together that is the cluster-wide step
// property.
func (n *Node) linMintLocked(k int64) ([]runtime.Range, error) {
	if n.linBlk.remaining() < k {
		need := n.cfg.LINBlock
		if need < k {
			need = k
		}
		r, err := n.alloc.grantFresh(n.cfg.NodeID, need)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", wire.ErrNoRange, err)
		}
		n.cfg.Stats.Grants.Add(1)
		n.linBlk = block{next: r.First, end: r.First + r.Count, epoch: n.alloc.epoch}
	}
	first := n.linBlk.next
	n.linBlk.next += k
	n.cfg.Stats.LinServed.Add(1)
	return []runtime.Range{{First: first, Stride: 1, Count: k}}, nil
}

// LIN returns the node's LIN backend for the serving layer's LIN
// sweeper (server Options.LIN): one call mints a whole sweep's k values
// at the cluster's serialization point.
func (n *Node) LIN() LINBackend { return LINBackend{n} }

// LINBackend mints LIN values at the cluster leader's serialization
// point. It implements the server Backend contract plus the fallible
// TryIncBatch, which the server's one LIN sweeper calls once per sweep —
// so a node has at most one LIN mint in flight, and its forward lane one
// caller.
type LINBackend struct{ n *Node }

// Shape implements the server Backend contract: the minter's shape.
func (b LINBackend) Shape() network.Shape { return b.n.minter.Shape() }

// IncBatch implements the server Backend contract. It retries until the
// mint succeeds or the node closes; servers that understand TryIncBatch
// never call it.
func (b LINBackend) IncBatch(wire, k int) []runtime.Range {
	for {
		rs, err := b.TryIncBatch(wire, k)
		if err == nil || b.n.closing.Load() {
			return rs
		}
	}
}

// TryIncBatch mints k LIN values: under the node mutex while this node
// holds the lease, otherwise with one TLinForward to the leader. A
// refusal, or a leader that cannot be reached, is the retryable
// wire.ErrNotLeader (or wire.ErrNoRange); the server sheds the sweep with
// it.
func (b LINBackend) TryIncBatch(wireID, k int) ([]runtime.Range, error) {
	n := b.n
	n.mu.Lock()
	if n.leaseLocked(n.cfg.Clock.Now()) {
		rs, err := n.linMintLocked(int64(k))
		n.mu.Unlock()
		return rs, err
	}
	cl := n.ms.claim
	n.mu.Unlock()
	if cl.Term == 0 || cl.Addr == "" || cl.Leader == n.cfg.NodeID {
		return nil, wire.ErrNotLeader
	}
	n.cfg.Stats.LinForwards.Add(1)
	start := n.cfg.Clock.Now()
	req := wire.Frame{Type: wire.TLinForward, Mode: wire.ModeLIN,
		Wire: int64(wireID), K: int64(k), Epoch: EpochOf(cl.Term, cl.Leader)}
	resp, err := n.rpc(n.cfg.Dial(LaneForward), cl.Addr, &req)
	n.cfg.Stats.FwdLatency.Record(wireID, n.cfg.Clock.Since(start))
	if err != nil {
		if errors.Is(err, wire.ErrNotLeader) || errors.Is(err, wire.ErrNoRange) {
			return nil, err // the remote already classified the refusal
		}
		// An unreachable forward target is a leadership problem, not a
		// client one: surface the retryable refusal so callers fail over
		// to a live node instead of treating the op as malformed.
		return nil, fmt.Errorf("%w: forward to %s: %v", wire.ErrNotLeader, cl.Addr, err)
	}
	if resp.Type != wire.TRanges {
		return nil, fmt.Errorf("cluster: unexpected LIN forward reply %v", resp.Type)
	}
	out := make([]runtime.Range, len(resp.Rs))
	for i, r := range resp.Rs {
		out[i] = runtime.Range{First: r.First, Stride: r.Stride, Count: r.Count}
	}
	return out, nil
}

// Close shuts the node down gracefully: stop gossiping, hand unminted
// remainders back to the leader (an epoch-checked TRangeReturn — the
// leader reuses what it granted itself and burns the rest), then tear
// down the transport.
func (n *Node) Close() error {
	if !n.closing.CompareAndSwap(false, true) {
		return nil
	}
	close(n.closed)
	// Graceful handoff before the transport goes away.
	remains := n.minter.drain()
	n.mu.Lock()
	cl := n.ms.claim
	now := n.cfg.Clock.Now()
	leaderSelf := n.leaseLocked(now)
	n.mu.Unlock()
	for _, er := range remains {
		if leaderSelf {
			n.mu.Lock()
			if n.alloc != nil && n.alloc.acceptReturn(er.epoch, er.rs) {
				n.cfg.Stats.Reclaims.Add(1)
			}
			n.mu.Unlock()
			continue
		}
		if cl.Term == 0 || cl.Addr == "" || cl.Leader == n.cfg.NodeID {
			continue // no leader to return to: the remainder is burned
		}
		req := wire.Frame{Type: wire.TRangeReturn, Node: n.cfg.NodeID, Epoch: er.epoch}
		req.Rs = er.rs
		if _, err := n.rpc(n.cfg.Dial(LaneRange), cl.Addr, &req); err == nil {
			n.cfg.Stats.Handoffs.Add(1)
		}
	}
	return n.shutdownTransport()
}

// Kill tears the node down abruptly — no handoff, no returns — the
// simulation's stand-in for a crash. Unminted remainders are burned.
func (n *Node) Kill() error {
	if !n.closing.CompareAndSwap(false, true) {
		return nil
	}
	close(n.closed)
	n.minter.drain()
	return n.shutdownTransport()
}

func (n *Node) shutdownTransport() error {
	err := n.ln.Close()
	n.mu.Lock()
	ids := make([]uint64, 0, len(n.conns))
	for id := range n.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	conns := make([]net.Conn, len(ids))
	for i, id := range ids {
		conns[i] = n.conns[id]
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	return err
}
