package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/wire"
)

// TestClaimOrderAgreesWithEpochOrder pins the property the leadership
// tie-break exists for: claim.better is exactly epoch order on
// (Term, Leader). If the two orders ever diverge, a superseding claim
// could mature a lease over a LOWER stripe than its predecessor minted
// LIN from, and cluster-wide LIN would step backwards.
func TestClaimOrderAgreesWithEpochOrder(t *testing.T) {
	var claims []claim
	for term := uint64(1); term <= 3; term++ {
		for id := uint64(1); id <= 3; id++ {
			claims = append(claims, claim{Term: term, Leader: id})
		}
	}
	for _, a := range claims {
		for _, b := range claims {
			want := EpochOf(a.Term, a.Leader) > EpochOf(b.Term, b.Leader)
			if got := a.better(b); got != want {
				t.Errorf("claim (t%d,n%d).better(t%d,n%d) = %v, want %v (epochs %d vs %d)",
					a.Term, a.Leader, b.Term, b.Leader, got, want,
					EpochOf(a.Term, a.Leader), EpochOf(b.Term, b.Leader))
			}
		}
	}
}

// TestSameTermRejoinCannotRegressEpoch is the split-brain regression:
// node 1 elects term 7 but is partitioned before its claim gossips;
// node 2 independently elects the same term 7, matures, and serves LIN
// from stripe EpochOf(7,2). When node 1 rejoins, its claim (7,1) must
// NOT supersede (7,2) — a lease built on it would mint LIN from the
// lower stripe EpochOf(7,1), below ids already served. The reverse
// direction (a higher-id same-term claim arriving) must supersede, onto
// a strictly higher stripe.
func TestSameTermRejoinCannotRegressEpoch(t *testing.T) {
	now := time.Unix(0, 0)
	ms := newMembership(Member{ID: 3, Addr: "c"}, now, time.Second, 3*time.Second)
	ms.claim = claim{Term: 7, Leader: 2, Addr: "b"}

	ms.merge(digest{
		From:    1,
		Members: []Member{{ID: 1, Addr: "a", Incarnation: 1, Beat: 1}},
		Claim:   claim{Term: 7, Leader: 1, Addr: "a"},
	}, now)
	if ms.claim.Leader != 2 || ms.claim.Term != 7 {
		t.Fatalf("rejoining same-term lower id superseded the serving leader: claim %+v", ms.claim)
	}

	before := EpochOf(ms.claim.Term, ms.claim.Leader)
	ms.merge(digest{
		From:    4,
		Members: []Member{{ID: 4, Addr: "d", Incarnation: 1, Beat: 1}},
		Claim:   claim{Term: 7, Leader: 4, Addr: "d"},
	}, now)
	if ms.claim.Leader != 4 {
		t.Fatalf("same-term higher id must supersede: claim %+v", ms.claim)
	}
	if after := EpochOf(ms.claim.Term, ms.claim.Leader); after <= before {
		t.Fatalf("superseding claim regressed the epoch: %d -> %d", before, after)
	}
}

// TestConfigRejectsNodeIDZero: id 0 is the gossip wire's no-node
// sentinel (a digest's From and a claim's Leader are 0 only when
// absent), so a real node must not carry it — its endorsements would be
// silently dropped and a leader needing it for quorum would lose the
// lease despite a live majority.
func TestConfigRejectsNodeIDZero(t *testing.T) {
	_, err := Config{NodeID: 0, Addr: "127.0.0.1:0"}.withDefaults()
	if err == nil {
		t.Fatal("Config with NodeID 0 accepted; 0 is reserved as the wire's no-node sentinel")
	}
}

// probeDigest is a hostile gossip digest: a phantom member 0 that would
// count as alive and outrank every real id in an election, a leader id
// no Config accepts, and a term whose next epoch's stripe overflows
// int64 (StripeBase would go negative).
const probeDigest = `{"from":2,"members":[{"id":0,"addr":"x","inc":1,"beat":1}],` +
	`"claim":{"term":524288,"leader":5000,"addr":"x"}}`

// TestDecodeDigestRejectsOutOfRange: decodeDigest refuses a digest that
// merge must never admit, so a gossip request answers ErrBadFrame and
// leaves the table and the claim untouched. In-range digests at the
// edges still decode.
func TestDecodeDigestRejectsOutOfRange(t *testing.T) {
	digestJSON := func(member, leader, term uint64) string {
		return fmt.Sprintf(`{"from":2,"members":[{"id":%d,"addr":"b","inc":1,"beat":1}],`+
			`"claim":{"term":%d,"leader":%d,"addr":"b"}}`, member, term, leader)
	}
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"probe", probeDigest, false},
		{"member 0", digestJSON(0, 2, 3), false},
		{"member MaxNodes", digestJSON(MaxNodes, 2, 3), false},
		{"leader MaxNodes", digestJSON(2, MaxNodes, 3), false},
		{"leader 5000", digestJSON(2, 5000, 3), false},
		{"term MaxTerm+1", digestJSON(2, 2, MaxTerm+1), false},
		{"term 2^19", digestJSON(2, 2, 1<<19), false},
		{"plain", digestJSON(2, 2, 3), true},
		{"no claim", digestJSON(2, 0, 0), true},
		{"top ids", digestJSON(MaxNodes-1, MaxNodes-1, 3), true},
		{"term MaxTerm", digestJSON(2, 2, MaxTerm), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeDigest([]byte(tc.body))
			if (err == nil) != tc.ok {
				t.Fatalf("decodeDigest(%s) error %v, want ok=%v", tc.body, err, tc.ok)
			}
			now := time.Unix(0, 0)
			self := Member{ID: 1, Addr: "a", Incarnation: 1, Beat: 1}
			mine := claim{Term: 2, Leader: 1, Addr: "a"}
			n := &Node{cfg: Config{Clock: clock.Or(nil)}, lead: leadership{ms: newMembership(self, now, time.Second, 3*time.Second)}}
			n.lead.ms.claim = mine
			resp := n.HandlePeer(&wire.Frame{Type: wire.TGossip, Data: []byte(tc.body)})
			if tc.ok {
				if resp.Type != wire.TGossipAck {
					t.Fatalf("gossip answered %v %q, want an ack", resp.Type, resp.Msg)
				}
				return
			}
			if resp.Type != wire.TError || resp.Code != wire.CodeOf(wire.ErrBadFrame) {
				t.Fatalf("gossip answered %v %q, want ErrBadFrame", resp.Type, resp.Msg)
			}
			if len(n.lead.ms.members) != 1 || n.lead.ms.claim != mine {
				t.Fatalf("rejected digest changed the table: %d members, claim %+v", len(n.lead.ms.members), n.lead.ms.claim)
			}
		})
	}
}

// TestMaxTermBound pins MaxTerm at the overflow edge: the election after
// MaxTerm, at the highest node id, owns a stripe ending within int64;
// one term more and StripeBase wraps.
func TestMaxTermBound(t *testing.T) {
	base := StripeBase(EpochOf(MaxTerm+1, MaxNodes-1))
	if base <= 0 || base+(StripeSize-1) < base {
		t.Fatalf("stripe of EpochOf(MaxTerm+1, MaxNodes-1) overflows: base %d", base)
	}
	if over := StripeBase(EpochOf(MaxTerm+2, MaxNodes-1)); over > 0 && over+(StripeSize-1) > over {
		t.Fatalf("MaxTerm %d is not the edge: term %d still fits (base %d)", MaxTerm, MaxTerm+2, over)
	}
}
