package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// State classifies a member by heartbeat freshness.
type State uint8

const (
	StateAlive State = iota
	StateSuspect
	StateDead
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	}
	return "dead"
}

// Member is one node's gossiped identity: who it is, where its cluster
// listener is, and how alive it claims to be. (Incarnation, Beat) orders
// claims about the same node — a restarted node starts a strictly higher
// incarnation, so its fresh heartbeats override anything the old life
// left in peers' tables.
type Member struct {
	ID          uint64 `json:"id"`
	Addr        string `json:"addr"`
	Incarnation uint64 `json:"inc"`
	Beat        uint64 `json:"beat"`
}

// newer reports whether m's claim supersedes o's.
func (m Member) newer(o Member) bool {
	if m.Incarnation != o.Incarnation {
		return m.Incarnation > o.Incarnation
	}
	return m.Beat > o.Beat
}

// claim is a leadership assertion carried on every gossip digest. The
// highest term wins; a same-term tie goes to the HIGHER node id. Both
// rules are deterministic, so every node converges on the same leader
// view given the same information — but the tie direction is not a free
// choice: claim order must agree with epoch order (an epoch is
// term*MaxNodes+id, so a higher term or a same-term-higher-id both mean
// a strictly higher epoch). Two partitioned nodes can start the same
// term independently; whichever claim ultimately supersedes must mint
// LIN from a stripe above anything the other may already have served,
// or cluster-wide LIN would step backwards. Tying toward the lower id
// would hand the superseding lease the LOWER stripe — epoch regression.
type claim struct {
	Term   uint64 `json:"term"`
	Leader uint64 `json:"leader"`
	Addr   string `json:"addr"` // the leader's cluster address
}

// better reports whether c supersedes o. The order is exactly epoch
// order on (Term, Leader) — see the type comment for why.
func (c claim) better(o claim) bool {
	if c.Term != o.Term {
		return c.Term > o.Term
	}
	return c.Leader > o.Leader
}

// digest is the JSON body of TGossip and TGossipAck frames: the sender's
// full member table plus its leadership view.
type digest struct {
	From    uint64   `json:"from"`
	Members []Member `json:"members"`
	Claim   claim    `json:"claim"`
}

// memberInfo is the local bookkeeping around one gossiped Member: when
// this node last saw its heartbeat advance, on the local clock.
type memberInfo struct {
	Member
	lastFresh time.Time
}

// endorsement records the leadership claim a peer most recently stated
// DIRECTLY to this node (digests relayed through third parties don't
// count — an endorsement is the peer's own signed statement, not a
// rumour). first is when the peer began stating this exact claim, last
// when it most recently restated it.
type endorsement struct {
	c           claim
	first, last time.Time
}

// membership is one node's view of the cluster. It is not goroutine-safe;
// the Node serializes access under its mutex.
type membership struct {
	self    uint64
	members map[uint64]*memberInfo
	endorse map[uint64]endorsement
	claim   claim
	suspect time.Duration
	dead    time.Duration
}

func newMembership(self Member, now time.Time, suspect, dead time.Duration) *membership {
	return &membership{
		self:    self.ID,
		members: map[uint64]*memberInfo{self.ID: {Member: self, lastFresh: now}},
		endorse: map[uint64]endorsement{},
		suspect: suspect,
		dead:    dead,
	}
}

// beat advances this node's own heartbeat.
func (ms *membership) beat(now time.Time) {
	me := ms.members[ms.self]
	me.Beat++
	me.lastFresh = now
}

// merge folds a peer's digest into the local table.
func (ms *membership) merge(d digest, now time.Time) {
	for _, m := range d.Members {
		if m.ID == ms.self {
			// Nobody knows more about this node than itself, except a
			// previous life: a higher incarnation in the wild means this
			// node restarted faster than rumours of its death spread.
			// Our own beats always win within our incarnation.
			continue
		}
		cur, ok := ms.members[m.ID]
		switch {
		case !ok:
			ms.members[m.ID] = &memberInfo{Member: m, lastFresh: now}
		case m.newer(cur.Member):
			cur.Member = m
			cur.lastFresh = now
		}
	}
	if d.From != 0 && d.From != ms.self {
		// The digest is the sender's own statement of its leadership view:
		// a direct endorsement of d.Claim, restated or begun now. From 0
		// never names a real node — id 0 is reserved as the wire's no-node
		// sentinel (Config rejects it) — so a zero From is a malformed
		// digest and endorses nothing.
		if e, ok := ms.endorse[d.From]; ok && e.c == d.Claim {
			e.last = now
			ms.endorse[d.From] = e
		} else {
			ms.endorse[d.From] = endorsement{c: d.Claim, first: now, last: now}
		}
	}
	if (d.Claim.Leader != 0 || d.Claim.Term != 0) && d.Claim.better(ms.claim) {
		ms.claim = d.Claim
	}
}

// endorseCount counts peers whose direct statements currently back cl.
// An endorsement counts only when it is mature — first stated at least
// aging ago, long enough that any lease a previous claim's leader built
// on this peer's earlier statements has provably lapsed — and fresh,
// restated within window. Self is not counted; the leader accounts for
// its own backing separately.
func (ms *membership) endorseCount(cl claim, now time.Time, window, aging time.Duration) int {
	n := 0
	for _, id := range ms.sortedIDs() {
		if e, ok := ms.endorse[id]; ok && e.c == cl && now.Sub(e.first) >= aging && now.Sub(e.last) < window {
			n++
		}
	}
	return n
}

// state classifies one member now.
func (ms *membership) state(mi *memberInfo, now time.Time) State {
	age := now.Sub(mi.lastFresh)
	switch {
	case age < ms.suspect:
		return StateAlive
	case age < ms.dead:
		return StateSuspect
	}
	return StateDead
}

// sortedIDs returns every known member id in ascending order — the only
// iteration order the cluster ever uses, so nothing depends on Go's
// randomized map order.
func (ms *membership) sortedIDs() []uint64 {
	ids := make([]uint64, 0, len(ms.members))
	for id := range ms.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// freshCount counts members whose heartbeat advanced within the window —
// the leader's quorum-lease measure.
func (ms *membership) freshCount(now time.Time, window time.Duration) int {
	n := 0
	for _, id := range ms.sortedIDs() {
		if now.Sub(ms.members[id].lastFresh) < window {
			n++
		}
	}
	return n
}

// counts tallies members by state for the metrics surface.
func (ms *membership) counts(now time.Time) (c [StateDead + 1]int) {
	for _, id := range ms.sortedIDs() {
		c[ms.state(ms.members[id], now)]++
	}
	return c
}

// digest snapshots the table for one gossip exchange.
func (ms *membership) digest() digest {
	d := digest{From: ms.self, Claim: ms.claim}
	for _, id := range ms.sortedIDs() {
		d.Members = append(d.Members, ms.members[id].Member)
	}
	return d
}

// encode/decode keep the JSON round trip in one place.
func (d digest) encode() []byte {
	b, err := json.Marshal(d)
	if err != nil {
		// A digest is plain data; Marshal cannot fail on it.
		panic("cluster: digest encode: " + err.Error())
	}
	return b
}

// decodeDigest also rejects what merge must never admit: a member or
// leader id outside [1, MaxNodes), which no Config accepts, and a term
// above MaxTerm, whose next epoch's stripe would overflow int64.
func decodeDigest(b []byte) (digest, error) {
	var d digest
	if err := json.Unmarshal(b, &d); err != nil {
		return digest{}, err
	}
	for _, m := range d.Members {
		if m.ID == 0 || m.ID >= MaxNodes {
			return digest{}, fmt.Errorf("cluster: digest member id %d outside [1, %d)", m.ID, MaxNodes)
		}
	}
	if d.Claim.Leader >= MaxNodes {
		return digest{}, fmt.Errorf("cluster: digest leader id %d outside [1, %d)", d.Claim.Leader, MaxNodes)
	}
	if d.Claim.Term > MaxTerm {
		return digest{}, fmt.Errorf("cluster: digest term %d above %d", d.Claim.Term, uint64(MaxTerm))
	}
	return d, nil
}
