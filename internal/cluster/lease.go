package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/wire"
)

// leadership is a node's whole election, lease and grant rule, with no
// lock, clock, logger or goroutine: the Node calls its transitions under
// its mutex and carries out what they return. It holds the membership
// view and the one allocator: the epoch this node leads and its frontier.
type leadership struct {
	self       uint64
	addr       string
	seeds      []string // contact addresses, self excluded
	quorum     int      // a majority of the seeded cluster size
	rpc, lease time.Duration
	stripe     int64 // ids per epoch: StripeSize, smaller in tests
	audit      *Audit

	ms        *membership
	epoch     uint64 // the epoch this node leads (0: none)
	next      int64  // its frontier, an offset within the stripe
	electedAt time.Time
	round     int // gossip rounds ticked
}

// turn is what a transition leaves the shell to report: the claim that
// deposed this node's term, and a term it started and why.
type turn struct {
	deposedBy claim  // Term 0: not deposed
	term      uint64 // 0: none started
	why       string
}

// newLeadership starts a node's view at now, in a fresh incarnation: a
// restart's is strictly higher than any earlier life could have gossiped
// (the clock only moves forward), so stale rumours cannot shadow it.
func newLeadership(cfg Config, now time.Time) leadership {
	self := Member{ID: cfg.NodeID, Addr: cfg.Addr, Incarnation: uint64(now.UnixNano())}
	l := leadership{self: self.ID, addr: self.Addr, quorum: cfg.ExpectedPeers/2 + 1,
		rpc: cfg.RPCTimeout, lease: cfg.leaseTimeout(), stripe: StripeSize, audit: cfg.Audit,
		ms: newMembership(self, now, cfg.suspectAfter(), cfg.deadAfter())}
	for _, s := range cfg.Seeds {
		if s != cfg.Addr {
			l.seeds = append(l.seeds, s)
		}
	}
	return l
}

// held reports whether this node may act as leader at now: it must be
// the claimed leader of the current term, lead that term's epoch, and be
// backed by a majority of direct, mature, fresh endorsements of exactly
// this claim.
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
// TestLeaseFence races two leases that way.
func (l *leadership) held(now time.Time) bool {
	cl := l.ms.claim
	if cl.Term == 0 || cl.Leader != l.self || l.epoch != EpochOf(cl.Term, cl.Leader) {
		return false
	}
	aging := l.rpc + l.lease
	if now.Sub(l.electedAt) < aging {
		return false // a predecessor's lease may not have lapsed yet
	}
	return 1+l.ms.endorseCount(cl, now, l.lease, aging) >= l.quorum
}

// tick runs one gossip round's rule: beat, elect, and pick the peer to
// send the returned digest to, round-robin over the known peers not dead
// (in id order: nothing iterates maps), else over the seeds ("": none).
func (l *leadership) tick(now time.Time) (digest, string, turn) {
	l.ms.beat(now)
	t := l.elect(now)
	var peers []string
	for _, id := range l.ms.sortedIDs() {
		if mi := l.ms.members[id]; id != l.self && l.ms.state(mi, now) != StateDead {
			peers = append(peers, mi.Addr)
		}
	}
	if len(peers) == 0 {
		peers = l.seeds
	}
	addr := ""
	if len(peers) > 0 {
		addr = peers[l.round%len(peers)]
	}
	l.round++
	return l.ms.digest(), addr, t
}

// elect advances the election one step.
func (l *leadership) elect(now time.Time) turn {
	cl := l.ms.claim
	if cl.Term > 0 && cl.Leader == l.self {
		if l.epoch == EpochOf(cl.Term, cl.Leader) {
			return turn{} // our own claim, allocator continuity intact
		}
		// A claim naming us that we lead no epoch for is a ghost of a
		// previous incarnation, whose frontier died with it: re-minting
		// its stripe from zero would duplicate ids. Supersede it with a
		// fresh term once a majority is fresh enough to propagate it.
		if l.ms.freshCount(now, l.lease) < l.quorum {
			return turn{}
		}
		why := fmt.Sprintf("superseding own ghost claim of term %d", cl.Term)
		return turn{term: l.startTerm(now), why: why}
	}
	var t turn
	if l.epoch != 0 {
		t.deposedBy, l.epoch = cl, 0 // a higher-term claim deposed us
	}
	if cl.Term > 0 {
		if mi, ok := l.ms.members[cl.Leader]; ok && l.ms.state(mi, now) == StateAlive {
			return t // healthy leader exists; follow it
		}
	}
	// No live claimant. Elect ourselves only if enough of the seeded
	// cluster is known (a node booting alone must meet its peers first),
	// a majority is fresh enough that the new term will propagate, and we
	// are the minimal alive id (the beat keeps us alive).
	if len(l.ms.members) < l.quorum || l.ms.freshCount(now, l.lease) < l.quorum {
		return t
	}
	for _, id := range l.ms.sortedIDs() {
		if id < l.self && l.ms.state(l.ms.members[id], now) == StateAlive {
			return t
		}
	}
	t.term, t.why = l.startTerm(now), "no live claimant"
	return t
}

// startTerm begins and returns the next term, led by this node: a new
// epoch whose untouched stripe lies above every earlier one, fenced
// until the term and a majority's endorsements of it mature (held).
func (l *leadership) startTerm(now time.Time) uint64 {
	term := l.ms.claim.Term + 1 // the claim is the highest term this node has seen
	l.ms.claim = claim{Term: term, Leader: l.self, Addr: l.addr}
	l.epoch, l.next, l.electedAt = EpochOf(term, l.self), 0, now
	return term
}

// merge folds a peer's digest into the view and returns the ack, this
// node's own digest. A higher claim ends this node's lease at once.
func (l *leadership) merge(d digest, now time.Time) digest {
	l.ms.merge(d, now)
	return l.ms.digest()
}

// grant carves k ids for node `to`: the one way an id leaves the leader,
// SC block and LIN sweep alike. Without the lease it refuses with
// wire.ErrNotLeader. When the stripe cannot hold k more it starts the
// next term and refuses this call with wire.ErrNoRange; the new term's
// fence then pauses grants until its lease matures.
func (l *leadership) grant(to uint64, k int64, now time.Time) (r wire.Range, t turn, err error) {
	if !l.held(now) {
		return r, t, wire.ErrNotLeader
	}
	if r, err = l.carve(to, k); errors.Is(err, errSpent) && l.ms.claim.Term < MaxTerm {
		t.why = fmt.Sprintf("epoch %d stripe spent", l.epoch)
		t.term = l.startTerm(now)
	}
	if err != nil {
		err = fmt.Errorf("%w: %v", wire.ErrNoRange, err)
	}
	return r, t, err
}

// errSpent refuses a grant that the stripe's remainder cannot hold.
var errSpent = errors.New("cluster: stripe spent")

// carve cuts k ids for node `to` from the leader's frontier, above every
// block carved before it in the epoch: the order LIN sweeps and each
// node's own order rest on. The frontier is not durable on purpose: a
// new term's fresh stripe cannot intersect any earlier grant, and ids
// never minted before a crash or leave burn: a gap, never a duplicate.
func (l *leadership) carve(to uint64, k int64) (wire.Range, error) {
	if k <= 0 {
		return wire.Range{}, fmt.Errorf("cluster: grant of %d ids", k)
	}
	if l.next+k > l.stripe {
		return wire.Range{}, errSpent
	}
	r := wire.Range{First: StripeBase(l.epoch) + l.next, Stride: 1, Count: k}
	l.next += k
	l.audit.record(GrantRecord{Epoch: l.epoch, To: to, R: r})
	return r, nil
}
