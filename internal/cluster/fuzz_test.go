package cluster

import (
	"testing"
	"time"
)

// FuzzDecodeDigest feeds arbitrary bytes to the gossip decoder and
// merges whatever it accepts into a membership holding self and a
// claim: nothing may panic, self's own entry never changes, the local
// claim never gets worse, and no member id outside [1, MaxNodes) enters
// the table. Run with `go test -fuzz FuzzDecodeDigest ./internal/cluster`.
func FuzzDecodeDigest(f *testing.F) {
	now := time.Unix(0, 0)
	self := Member{ID: 3, Addr: "c", Incarnation: 2, Beat: 5}
	mine := claim{Term: 7, Leader: 3, Addr: "c"}
	fresh := func() *membership {
		ms := newMembership(self, now, time.Second, 3*time.Second)
		ms.claim = mine
		return ms
	}

	seeded := fresh()
	seeded.merge(digest{
		From:    1,
		Members: []Member{{ID: 1, Addr: "a", Incarnation: 1, Beat: 9}, {ID: 2, Addr: "b", Incarnation: 1, Beat: 4}},
		Claim:   claim{Term: 8, Leader: 1, Addr: "a"},
	}, now)
	f.Add(seeded.digest().encode())
	f.Add([]byte(probeDigest))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"from":3,"members":[{"id":3,"addr":"evil","inc":99,"beat":99}],"claim":{"term":6,"leader":1023}}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := decodeDigest(b)
		if err != nil {
			return
		}
		ms := fresh()
		ms.merge(d, now.Add(time.Millisecond))
		if got := ms.members[ms.self].Member; got != self {
			t.Fatalf("merge changed self: %+v, want %+v", got, self)
		}
		if ms.claim != mine && !ms.claim.better(mine) {
			t.Fatalf("merge made the claim worse: %+v after %+v", ms.claim, mine)
		}
		for id := range ms.members {
			if id == 0 || id >= MaxNodes {
				t.Fatalf("merge admitted member id %d outside [1, %d)", id, MaxNodes)
			}
		}
	})
}
