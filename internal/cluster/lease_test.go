package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// The model's timing: a gossip period, and an RPC timeout of three.
const (
	modelG   = 10 * time.Millisecond
	modelRPC = 3 * modelG
)

// newModelValues returns n leadership values of one seeded cluster,
// booted at t0 with the given gossip period and RPC timeout.
func newModelValues(n int, t0 time.Time, g, rpc time.Duration) []*leadership {
	var addrs []string
	for id := 1; id <= n; id++ {
		addrs = append(addrs, fmt.Sprintf("n%d", id))
	}
	var ls []*leadership
	for id := 1; id <= n; id++ {
		l := newLeadership(Config{NodeID: uint64(id), Addr: addrs[id-1], Seeds: addrs,
			ExpectedPeers: n, GossipEvery: g, RPCTimeout: rpc}, t0)
		ls = append(ls, &l)
	}
	return ls
}

// TestLeaseFence races two leases, as the fence argument on
// leadership.held has it, on three values with explicit times. Node 1
// leads term 1, endorsed by 2 and 3. Then node 1's outbound messages are
// lost: its peers' requests still reach it, its acks and its own gossip
// do not. Node 2 elects term 2 once 1 is suspect in its view, and node 3
// adopts it. The term-2 digests bound for node 1 stay in flight, and node
// 3's last digest that still endorses term 1 is merged at node 1
// RPCTimeout after node 3 switched. After every event at most one of
// nodes 1 and 2 may hold the lease, and node 2 must come to hold it.
func TestLeaseFence(t *testing.T) {
	const g, rpc = 10 * time.Millisecond, 100 * time.Millisecond
	t0 := time.Unix(0, 0)
	now := t0
	ls := newModelValues(3, t0, g, rpc)
	n1, n2, n3 := ls[0], ls[1], ls[2]
	check := func(event string) {
		t.Helper()
		if n1.held(now) && n2.held(now) {
			t.Fatalf("%s at +%v: nodes 1 and 2 both hold the lease (claims %+v and %+v)",
				event, now.Sub(t0), n1.ms.claim, n2.ms.claim)
		}
	}
	// round steps the clock one period, ticks every value, and merges the
	// digest of each at each peer deliver lets through: at nodes 2 and 3
	// first, then at node 1.
	round := func(deliver func(from, to int, d digest) bool) {
		now = now.Add(g)
		var ds [3]digest
		for i, l := range ls {
			ds[i], _, _ = l.tick(now)
			check(fmt.Sprintf("tick at node %d", i+1))
		}
		for _, to := range []int{1, 2, 0} {
			for from := range ls {
				if from != to && deliver(from+1, to+1, ds[from]) {
					ls[to].merge(ds[from], now)
					check(fmt.Sprintf("node %d's digest merged at node %d", from+1, to+1))
				}
			}
		}
	}
	until := func(what string, done func() bool, deliver func(from, to int, d digest) bool) {
		t.Helper()
		for i := 0; !done(); i++ {
			if i == 100 {
				t.Fatalf("no %s within 100 gossip periods", what)
			}
			round(deliver)
		}
	}

	until("lease at node 1", func() bool { return n1.held(now) }, func(int, int, digest) bool { return true })
	if n1.ms.claim.Term != 1 {
		t.Fatalf("node 1 leads %+v, want term 1", n1.ms.claim)
	}

	// Node 1 is cut off outbound. Its peers' term-1 digests still reach
	// it; node 3's last one, generated in the round it switches, is held
	// back, and so is every term-2 digest.
	var late digest
	var switched time.Time
	until("term 2 at node 3", func() bool { return !switched.IsZero() }, func(from, to int, d digest) bool {
		if from == 1 || (to == 1 && d.Claim.Term != 1) {
			return false
		}
		if from == 3 && to == 1 && n3.ms.claim.Term == 2 {
			late, switched = d, now
			return false
		}
		return true
	})
	if !n1.held(now) || n2.ms.claim != (claim{Term: 2, Leader: 2, Addr: "n2"}) {
		t.Fatalf("node 1 holds %v, node 2 claims %+v: want node 1's lease live beside node 2's term 2",
			n1.held(now), n2.ms.claim)
	}

	// Nodes 2 and 3 gossip on. Node 3's stale digest reaches node 1
	// RPCTimeout after node 3 switched, the latest the fence allows.
	peers := func(from, to int, _ digest) bool { return from != 1 && to != 1 }
	until("late delivery", func() bool { return !now.Before(switched.Add(rpc)) }, peers)
	n1.merge(late, now)
	check("node 3's late term-1 digest merged at node 1")
	until("lease at node 2", func() bool { return n2.held(now) }, peers)
	for i := 0; i < 10; i++ {
		round(peers)
	}
}

// modelMsg is a gossip request or its ack in flight on a link. sent is
// the request's send time: a message is delivered within modelRPC of it
// or not at all, the bound the fence argument assumes, and an ack after
// that finds its call timed out.
type modelMsg struct {
	d    digest
	ack  bool
	sent time.Time
}

// modelLink is one direction between two values. A cut link loses what
// it holds and what is sent on it.
type modelLink struct {
	from, to int
	cut      bool
	msgs     []modelMsg
}

// leaseModel is weave's Paxos Model (SNIPPETS.md) for leadership: values
// joined by links that hold undelivered gossip requests and acks, and
// one seeded rand picking the next ready event.
type leaseModel struct {
	r      *rand.Rand
	now    time.Time
	ls     []*leadership
	links  []*modelLink
	claims []claim            // each value's claim after the last event
	tops   []map[uint64]int64 // per granting value and epoch, its last grant's end
	grants []wire.Range
	log    []string // the events so far
	held   int      // events after which some value held the lease
	// renewed holds the epochs a grant began at a spent stripe; crossed
	// counts the grants made in them.
	renewed map[uint64]bool
	crossed int
}

func newLeaseModel(seed int64, stripe int64) *leaseModel {
	m := &leaseModel{r: rand.New(rand.NewSource(seed)), now: time.Unix(0, 0), renewed: map[uint64]bool{}}
	m.ls = newModelValues(3, m.now, modelG, modelRPC)
	for i, l := range m.ls {
		l.stripe = stripe
		m.claims = append(m.claims, claim{})
		m.tops = append(m.tops, map[uint64]int64{})
		for j := range m.ls {
			if i != j {
				m.links = append(m.links, &modelLink{from: i, to: j})
			}
		}
	}
	return m
}

func (m *leaseModel) link(from, to int) *modelLink {
	for _, ln := range m.links {
		if ln.from == from && ln.to == to {
			return ln
		}
	}
	panic("no link")
}

// send queues msg on the link from → to unless it is cut.
func (m *leaseModel) send(from, to int, msg modelMsg) {
	if ln := m.link(from, to); !ln.cut {
		ln.msgs = append(ln.msgs, msg)
	}
}

// step takes one event and checks every invariant in the state it
// reaches.
func (m *leaseModel) step() error {
	var ready []*modelLink
	for _, ln := range m.links {
		if len(ln.msgs) > 0 {
			ready = append(ready, ln)
		}
	}
	switch p := m.r.Intn(100); {
	case p < 35 && len(ready) > 0:
		ln := ready[m.r.Intn(len(ready))]
		msg := ln.msgs[0]
		ln.msgs = ln.msgs[1:]
		kind := "request"
		if msg.ack {
			kind = "ack"
		}
		switch q := m.r.Intn(10); {
		case q < 7:
			m.note("%s %d→%d delivered", kind, ln.from+1, ln.to+1)
			if !msg.ack {
				ack := m.ls[ln.to].merge(msg.d, m.now)
				m.send(ln.to, ln.from, modelMsg{d: ack, ack: true, sent: msg.sent})
			} else {
				m.ls[ln.to].merge(msg.d, m.now)
			}
		case q < 9:
			m.note("%s %d→%d held back, to be delivered late", kind, ln.from+1, ln.to+1)
			ln.msgs = append(ln.msgs, msg)
		default:
			m.note("%s %d→%d dropped", kind, ln.from+1, ln.to+1)
		}
	case p < 60:
		i := m.r.Intn(len(m.ls))
		d, addr, _ := m.ls[i].tick(m.now)
		m.note("tick at %d", i+1)
		for j, l := range m.ls {
			if l.addr == addr {
				m.send(i, j, modelMsg{d: d, sent: m.now})
			}
		}
	case p < 75:
		i, to, k := m.r.Intn(len(m.ls)), 1+m.r.Intn(len(m.ls)), 1+m.r.Int63n(16)
		r, turn, err := m.ls[i].grant(uint64(to), k, m.now)
		m.note("grant of %d at %d", k, i+1)
		if turn.term > 0 {
			m.renewed[m.ls[i].epoch] = true
		}
		if err == nil {
			if err := m.granted(i, r); err != nil {
				return err
			}
		}
	case p < 97:
		m.now = m.now.Add(modelG)
		m.note("clock +%v", modelG)
		for _, ln := range m.links {
			live := ln.msgs[:0]
			for _, msg := range ln.msgs {
				if m.now.Sub(msg.sent) <= modelRPC {
					live = append(live, msg)
				}
			}
			ln.msgs = live
		}
	default:
		ln := m.links[m.r.Intn(len(m.links))]
		ln.cut, ln.msgs = !ln.cut, nil
		m.note("link %d→%d cut %v", ln.from+1, ln.to+1, ln.cut)
	}
	return m.check()
}

// granted checks a grant value i made: inside its epoch's stripe, above
// i's earlier grants in that epoch, and overlapping no grant at all.
func (m *leaseModel) granted(i int, r wire.Range) error {
	l := m.ls[i]
	base := StripeBase(l.epoch)
	if r.First < base || r.First+r.Count > base+l.stripe {
		return fmt.Errorf("grant %+v escapes epoch %d's stripe", r, l.epoch)
	}
	if top, ok := m.tops[i][l.epoch]; ok && r.First < top {
		return fmt.Errorf("node %d granted %+v below its earlier grant's end %d in epoch %d", i+1, r, top, l.epoch)
	}
	for _, g := range m.grants {
		if r.First < g.First+g.Count && g.First < r.First+r.Count {
			return fmt.Errorf("grant %+v overlaps grant %+v", r, g)
		}
	}
	if m.renewed[l.epoch] {
		m.crossed++
	}
	m.tops[i][l.epoch] = r.First + r.Count
	m.grants = append(m.grants, r)
	return nil
}

// check asserts the per-state invariants: at most one value holds the
// lease, and no value's claim regresses in epoch order.
func (m *leaseModel) check() error {
	var holders []int
	for i, l := range m.ls {
		if l.held(m.now) {
			holders = append(holders, i+1)
		}
		cl := l.ms.claim
		if cl != m.claims[i] && !cl.better(m.claims[i]) {
			return fmt.Errorf("node %d's claim regressed: %+v after %+v", i+1, cl, m.claims[i])
		}
		m.claims[i] = cl
	}
	if len(holders) > 1 {
		return fmt.Errorf("nodes %v hold the lease at once", holders)
	}
	if len(holders) == 1 {
		m.held++
	}
	return nil
}

func (m *leaseModel) note(format string, args ...any) {
	m.log = append(m.log, fmt.Sprintf(format, args...))
}

// TestLeadershipModel runs three leadership values through 200 seeded
// histories of ticks, deliveries (on time, late or never), clock steps,
// link cuts and heals, and grants, and checks after every event that at
// most one value holds the lease, that no claim regresses, that each
// value's grants ascend within its epoch and that no two grants overlap.
// The second case shrinks the stripe to 64 ids, so grants spend it and
// start the next term again and again.
func TestLeadershipModel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stripe int64
	}{{"stripe", StripeSize}, {"spent-stripes", 64}} {
		t.Run(tc.name, func(t *testing.T) {
			var held, grants, crossed int
			for seed := int64(1); seed <= 200; seed++ {
				m := newLeaseModel(seed, tc.stripe)
				for ev := 0; ev < 1500; ev++ {
					if err := m.step(); err != nil {
						from := max(0, len(m.log)-25)
						t.Fatalf("seed %d, event %d: %v\nlast events:\n  %s",
							seed, ev+1, err, strings.Join(m.log[from:], "\n  "))
					}
				}
				held, grants, crossed = held+m.held, grants+len(m.grants), crossed+m.crossed
			}
			t.Logf("200 seeds: a lease held after %d events, %d grants, %d of them past a spent stripe", held, grants, crossed)
			if grants == 0 || (tc.stripe < StripeSize) != (crossed > 0) {
				t.Fatalf("%d grants, %d past a spent stripe: the model never got near what it checks", grants, crossed)
			}
		})
	}
}
