package cluster

import (
	"bufio"
	"errors"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/wire"
)

// startCluster boots n nodes on loopback TCP with pre-reserved
// listeners (so every node knows the full seed list up front), each node
// behind a server as countd runs it, and waits until a leader holds the
// lease and every node agrees on it. Each set function edits every
// node's config before it starts.
func startCluster(t *testing.T, n int, set ...func(*Config)) ([]*Node, []*server.Server, *Audit) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		lns[i] = listenT(t)
		addrs[i] = lns[i].Addr().String()
	}
	audit := NewAudit()
	nodes := make([]*Node, n)
	srvs := make([]*server.Server, n)
	for i := range nodes {
		cfg := Config{
			NodeID:      uint64(i + 1),
			Addr:        addrs[i],
			Seeds:       addrs,
			GossipEvery: 5 * time.Millisecond,
			BlockSize:   64,
			Audit:       audit,
		}
		for _, f := range set {
			f(&cfg)
		}
		nodes[i], srvs[i] = startNode(t, cfg, lns[i])
	}
	waitLeader(t, nodes)
	return nodes, srvs, audit
}

func listenT(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// startNode starts a node and, on ln, the server whose door is its only
// listener, wired as cmd/countd wires them. Cleanup closes the node,
// then the server.
func startNode(t *testing.T, cfg Config, ln net.Listener) (*Node, *server.Server) {
	t.Helper()
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(nd.Minter(), server.Options{LIN: nd})
	go srv.Serve(ln)
	t.Cleanup(func() {
		_ = nd.Close()
		_ = srv.Close()
	})
	return nd, srv
}

// waitLeader blocks until one node holds the lease and every node's view
// names it.
func waitLeader(t *testing.T, nodes []*Node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ready := 0
		leaderSeen := false
		for _, nd := range nodes {
			if nd == nil {
				continue
			}
			if _, _, ok := nd.Leader(); ok {
				ready++
			}
			if nd.IsLeader() {
				leaderSeen = true
			}
		}
		live := 0
		for _, nd := range nodes {
			if nd != nil {
				live++
			}
		}
		if leaderSeen && ready == live {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader elected")
}

// collect appends every id in rs to dst.
func collect(dst []int64, rs []wire.Range) []int64 {
	for _, r := range rs {
		for i := int64(0); i < r.Count; i++ {
			dst = append(dst, r.First+i*r.Stride)
		}
	}
	return dst
}

// mintIDs mints k SC ids on nd and returns them in the order handed out.
func mintIDs(t *testing.T, nd *Node, k int) []int64 {
	t.Helper()
	rts, err := nd.Minter().Mint(nil, 0, k)
	if err != nil {
		t.Fatalf("node %d mint: %v", nd.ID(), err)
	}
	var ids []int64
	for _, r := range rts {
		ids = collect(ids, []wire.Range{{First: r.First, Stride: r.Stride, Count: r.Count}})
	}
	return ids
}

func assertUnique(t *testing.T, ids []int64) {
	t.Helper()
	sorted := append([]int64(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			t.Fatalf("id %d minted twice (%d ids total)", sorted[i], len(ids))
		}
	}
}

// TestClusterMintsUniqueAcrossNodes boots a 3-node cluster and mints SC
// blocks from every node concurrently with the grant plumbing live:
// all ids must be globally unique and covered by audited grants.
func TestClusterMintsUniqueAcrossNodes(t *testing.T) {
	nodes, _, audit := startCluster(t, 3)

	var ids []int64
	for round := 0; round < 5; round++ {
		for _, nd := range nodes {
			ids = append(ids, mintIDs(t, nd, 100)...)
		}
	}
	if len(ids) != 3*5*100 {
		t.Fatalf("minted %d ids, want %d", len(ids), 3*5*100)
	}
	assertUnique(t, ids)

	grants := audit.Grants()
	for _, id := range ids {
		ok := false
		for _, g := range grants {
			if id >= g.R.First && id < g.R.First+g.R.Count {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("minted id %d outside every audited grant", id)
		}
	}
}

// TestClusterLINMonotone serializes LIN mints through the leader from
// every node in turn: the values must be strictly increasing in call
// order — the cluster-wide step property.
func TestClusterLINMonotone(t *testing.T) {
	nodes, _, _ := startCluster(t, 3)

	prev := int64(-1)
	for j := 0; j < 60; j++ {
		nd := nodes[j%len(nodes)]
		// Mid-gossip the view can be briefly leaderless at a follower;
		// that answers ErrNotLeader, which real clients retry. Do the
		// same, after waiting for the view to converge again, within the
		// startup's convergence bound.
		var rs []int64
		for deadline := time.Now().Add(10 * time.Second); ; {
			out, err := nd.Mint(nil, 0, 1)
			if err == nil {
				rs = collect(nil, []wire.Range{{First: out[0].First, Stride: out[0].Stride, Count: out[0].Count}})
				break
			}
			if !errors.Is(err, wire.ErrNotLeader) || time.Now().After(deadline) {
				t.Fatalf("LIN via node %d: %v", nd.ID(), err)
			}
			waitLeader(t, nodes)
			time.Sleep(2 * time.Millisecond)
		}
		if rs[0] <= prev {
			t.Fatalf("LIN value %d not above previous %d (call %d)", rs[0], prev, j)
		}
		prev = rs[0]
	}
}

// TestLINAboveEarlierSC: one caller on the leader takes a LIN value, an
// SC value, then a LIN value again. Every LIN sweep is a fresh grant from
// the frontier the SC block was granted from, so the second LIN value
// lies above the SC value: LIN keeps its caller's session order across
// modes.
func TestLINAboveEarlierSC(t *testing.T) {
	nodes, _, _ := startCluster(t, 3)
	var leader *Node
	for _, nd := range nodes {
		if nd.IsLeader() {
			leader = nd
		}
	}
	if leader == nil {
		t.Fatal("no node holds the lease")
	}
	// A refusal while the view briefly loses its leader is retried, as a
	// client would. Each mint appends its one range to a non-empty dst,
	// as into the sweeper's reused buffer.
	mint := func(mode string, inc func(dst []runtime.Range, wireID, k int) ([]runtime.Range, error)) int64 {
		t.Helper()
		dst := []runtime.Range{{First: -1, Stride: 1, Count: 1}}
		for deadline := time.Now().Add(10 * time.Second); ; {
			rs, err := inc(dst, 0, 1)
			if err == nil {
				if len(rs) != 2 || rs[0] != dst[0] {
					t.Fatalf("%s on node %d appended %v to %v, want one range after dst", mode, leader.ID(), rs, dst)
				}
				return rs[1].First
			}
			refused := errors.Is(err, wire.ErrNotLeader) || errors.Is(err, wire.ErrNoRange)
			if !refused || time.Now().After(deadline) {
				t.Fatalf("%s on node %d: %v", mode, leader.ID(), err)
			}
			waitLeader(t, nodes)
		}
	}
	lin1 := mint("LIN", leader.Mint)
	sc := mint("SC", leader.Minter().Mint)
	lin2 := mint("LIN", leader.Mint)
	if lin2 <= sc || lin2 <= lin1 {
		t.Fatalf("LIN %d, SC %d, then LIN %d: the second LIN value is not above both", lin1, sc, lin2)
	}
}

// TestClusterGracefulHandoff shuts a follower down mid-block: its
// remainder burns, and the ids the leader mints afterwards never repeat
// one the follower minted.
func TestClusterGracefulHandoff(t *testing.T) {
	nodes, _, _ := startCluster(t, 3)

	leaderIdx := -1
	for i, nd := range nodes {
		if nd.IsLeader() {
			leaderIdx = i
		}
	}
	if leaderIdx < 0 {
		t.Fatal("no leader")
	}
	followerIdx := (leaderIdx + 1) % len(nodes)
	follower := nodes[followerIdx]
	leader := nodes[leaderIdx]

	// Mint a partial block on the follower so Close has a remainder to
	// burn.
	ids := mintIDs(t, follower, 10)
	if err := follower.Close(); err != nil {
		t.Fatalf("follower close: %v", err)
	}
	nodes[followerIdx] = nil

	for round := 0; round < 3; round++ {
		ids = append(ids, mintIDs(t, leader, 100)...)
	}
	assertUnique(t, ids)
}

// TestNodeAscendsAcrossPeerLeave: a node hands out ascending ids in one
// mode whoever leaves. Follower A is granted a block first, follower B
// the next one, then A leaves mid-block. Every block B is granted after
// that lies above its last, so B's values keep rising; a leader that
// re-granted A's remainder would hand B ids below the ones it minted.
func TestNodeAscendsAcrossPeerLeave(t *testing.T) {
	nodes, _, _ := startCluster(t, 3)

	var followers []*Node
	for _, nd := range nodes {
		if !nd.IsLeader() {
			followers = append(followers, nd)
		}
	}
	if len(followers) != 2 {
		t.Fatalf("%d followers, want 2", len(followers))
	}
	a, b := followers[0], followers[1]

	mintIDs(t, a, 10)
	vals := mintIDs(t, b, 1)
	if err := a.Close(); err != nil {
		t.Fatalf("node %d close: %v", a.ID(), err)
	}
	for i := 0; i < 8; i++ {
		vals = append(vals, mintIDs(t, b, 64)...)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatalf("node %d handed %d after %d", b.ID(), vals[i], vals[i-1])
		}
	}
}

// TestClusterKillRejoinNoDuplicates kills a follower (its unminted
// remainder burns), restarts it with a fresh incarnation on the same
// address, and keeps minting everywhere: still no duplicate ids.
func TestClusterKillRejoinNoDuplicates(t *testing.T) {
	nodes, srvs, _ := startCluster(t, 3)

	leaderIdx := -1
	for i, nd := range nodes {
		if nd.IsLeader() {
			leaderIdx = i
		}
	}
	if leaderIdx < 0 {
		t.Fatal("no leader")
	}
	victimIdx := (leaderIdx + 1) % len(nodes)
	victim := nodes[victimIdx]

	var ids []int64
	for _, nd := range nodes {
		ids = append(ids, mintIDs(t, nd, 50)...)
	}

	addr := victim.cfg.Addr
	seeds := victim.cfg.Seeds
	if err := victim.Close(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_ = srvs[victimIdx].Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	reborn, _ := startNode(t, Config{
		NodeID:      victim.cfg.NodeID,
		Addr:        addr,
		Seeds:       seeds,
		GossipEvery: 5 * time.Millisecond,
		BlockSize:   64,
		Audit:       victim.cfg.Audit,
	}, ln)
	nodes[victimIdx] = reborn
	waitLeader(t, nodes)

	for _, nd := range nodes {
		ids = append(ids, mintIDs(t, nd, 50)...)
	}
	assertUnique(t, ids)
}

// TestPeerOpcodesAnsweredWhileForwardStalls: a follower whose LIN
// sweeper is held inside its grant request to a stalled leader still
// answers a TGossip and a TRangeRequest, sent behind the held LIN frame
// on the same connection. Peer opcodes are answered at the door and
// never wait on the sweeper, so a busy node still gossips and grants.
func TestPeerOpcodesAnsweredWhileForwardStalls(t *testing.T) {
	// The stalled leader reads every frame, reports each grant request and
	// answers none.
	stall := listenT(t)
	forwards := make(chan struct{}, 8)
	var mu sync.Mutex
	var accepted []net.Conn
	go func() {
		for {
			c, err := stall.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepted = append(accepted, c)
			mu.Unlock()
			go func() {
				br := bufio.NewReader(c)
				for {
					f, err := wire.ReadFrame(br)
					if err != nil {
						return
					}
					if f.Type == wire.TRangeRequest {
						forwards <- struct{}{} // the LIN sweep's grant request
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		_ = stall.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range accepted {
			_ = c.Close()
		}
	})

	ln := listenT(t)
	nd, _ := startNode(t, Config{
		NodeID:      2,
		Addr:        ln.Addr().String(),
		Seeds:       []string{stall.Addr().String()},
		GossipEvery: time.Hour, // no tick may replace the claim below
		RPCTimeout:  time.Minute,
	}, ln)
	nd.mu.Lock()
	nd.lead.ms.claim = claim{Term: 1, Leader: 1, Addr: stall.Addr().String()}
	nd.mu.Unlock()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	send := func(f wire.Frame) {
		t.Helper()
		b, err := wire.EncodeFrame(&f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	send(wire.Frame{Type: wire.TIncBatch, ID: 1, K: 1, Mode: wire.ModeLIN})
	select {
	case <-forwards:
	case <-time.After(10 * time.Second):
		t.Fatal("the follower's LIN sweep never forwarded")
	}

	d := digest{From: 3, Members: []Member{{ID: 3, Addr: "peer", Incarnation: 1, Beat: 1}}}
	send(wire.Frame{Type: wire.TGossip, ID: 2, Data: d.encode()})
	send(wire.Frame{Type: wire.TRangeRequest, ID: 3, Node: 3, K: 8})
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	for _, want := range []struct {
		id  uint64
		typ wire.Type
	}{{2, wire.TGossipAck}, {3, wire.TError}} {
		f, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("reply %d while the forward stalls: %v", want.id, err)
		}
		if f.ID != want.id || f.Type != want.typ {
			t.Fatalf("reply %+v, want id %d of type %v", f, want.id, want.typ)
		}
		if f.Type == wire.TError && f.Code != wire.CodeNotLeader {
			t.Fatalf("a follower's grant refusal has code %v, want not_leader", f.Code)
		}
	}
}

// TestFollowerForwardsShareOneConn: a follower makes its peer calls on
// one pipelined client per peer, so its N LIN sweeps, each one grant RPC
// to the leader, dial one peer connection, not N.
func TestFollowerForwardsShareOneConn(t *testing.T) {
	const sweeps = 20
	var mu sync.Mutex
	dials := map[uint64]int{} // by dialling node
	nodes, _, _ := startCluster(t, 3, func(cfg *Config) {
		id := cfg.NodeID
		cfg.PeerDialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			mu.Lock()
			dials[id]++
			mu.Unlock()
			return net.DialTimeout("tcp", addr, timeout)
		}
	})
	var follower *Node
	for _, nd := range nodes {
		if !nd.IsLeader() {
			follower = nd
		}
	}
	before := follower.cfg.Stats.LinForwards.Load()
	for j := 0; j < sweeps; j++ {
		for deadline := time.Now().Add(10 * time.Second); ; {
			_, err := follower.Mint(nil, 0, 1)
			if err == nil {
				break
			}
			if !errors.Is(err, wire.ErrNotLeader) || time.Now().After(deadline) {
				t.Fatalf("LIN via node %d: %v", follower.ID(), err)
			}
			waitLeader(t, nodes)
		}
	}
	if fwd := follower.cfg.Stats.LinForwards.Load() - before; fwd < sweeps {
		t.Fatalf("%d LIN sweeps made %d forwards, want one each", sweeps, fwd)
	}
	mu.Lock()
	got := dials[follower.ID()]
	mu.Unlock()
	if got > len(nodes)-1 {
		t.Fatalf("follower dialled %d peer connections for %d forwards and its gossip, want at most one per peer (%d)",
			got, sweeps, len(nodes)-1)
	}
}

// TestSpentStripeStartsNextTerm: the leader's stripe is spent 100 ids
// short of its end, and the leader takes a LIN grant of 10 every
// millisecond. Once the stripe cannot hold 10 more, the leader starts the
// next term and mints again, from its fresh stripe, within RPCTimeout
// plus a few gossip periods (the new term's fence); every id is unique
// and the leader's ids ascend.
func TestSpentStripeStartsNextTerm(t *testing.T) {
	const rpc = 100 * time.Millisecond
	nodes, _, _ := startCluster(t, 3, func(cfg *Config) { cfg.RPCTimeout = rpc })
	var leader *Node
	for _, nd := range nodes {
		if nd.IsLeader() {
			leader = nd
		}
	}
	if leader == nil {
		t.Fatal("no node holds the lease")
	}
	leader.mu.Lock()
	spent := leader.lead.epoch
	leader.lead.next = StripeSize - 100
	leader.mu.Unlock()

	var ids []int64
	var stalled time.Time
	var pause time.Duration // from the first refusal to the first id of a later epoch
	for resumed := 0; resumed < 10; time.Sleep(time.Millisecond) {
		out, err := leader.Mint(nil, 0, 10)
		if err != nil {
			if !errors.Is(err, wire.ErrNoRange) && !errors.Is(err, wire.ErrNotLeader) {
				t.Fatalf("LIN on the leader: %v", err)
			}
			if stalled.IsZero() {
				stalled = time.Now()
			}
			if bound := rpc + 40*leader.cfg.GossipEvery; time.Since(stalled) > bound {
				t.Fatalf("minting stopped (spent epoch %d) and did not resume within %v: %v", spent, bound, err)
			}
			continue
		}
		ids = collect(ids, []wire.Range{{First: out[0].First, Stride: out[0].Stride, Count: out[0].Count}})
		switch epoch := uint64(out[0].First >> StripeShift); {
		case epoch < spent:
			t.Fatalf("grant %+v lies below the spent epoch %d", out[0], spent)
		case epoch > spent && resumed == 0:
			pause = time.Since(stalled)
			fallthrough
		case epoch > spent:
			resumed++
		}
		stalled = time.Time{}
	}
	t.Logf("minting paused %v at the stripe's end", pause)
	assertUnique(t, ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("the leader handed %d after %d", ids[i], ids[i-1])
		}
	}
}
