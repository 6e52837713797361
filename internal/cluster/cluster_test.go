package cluster

import (
	"bufio"
	"errors"
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/wire"
)

// startCluster boots n nodes on loopback TCP with pre-reserved
// listeners (so every node knows the full seed list up front) and waits
// until a leader holds the lease and every node agrees on it.
func startCluster(t *testing.T, n int) ([]*Node, *Audit) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	audit := NewAudit()
	nodes := make([]*Node, n)
	for i := range nodes {
		ln := lns[i]
		cfg := Config{
			NodeID:      uint64(i + 1),
			Addr:        addrs[i],
			Seeds:       addrs,
			GossipEvery: 5 * time.Millisecond,
			BlockSize:   64,
			LINBlock:    8,
			Listen:      func(string) (net.Listener, error) { return ln, nil },
			Audit:       audit,
		}
		nd, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		t.Cleanup(func() { _ = nd.Kill() })
	}
	waitLeader(t, nodes)
	return nodes, audit
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
	nodes, audit := startCluster(t, 3)

	var ids []int64
	for round := 0; round < 5; round++ {
		for _, nd := range nodes {
			rts, err := nd.Minter().TryIncBatch(0, 100)
			if err != nil {
				t.Fatalf("node %d mint: %v", nd.ID(), err)
			}
			for _, r := range rts {
				ids = collect(ids, []wire.Range{{First: r.First, Stride: r.Stride, Count: r.Count}})
			}
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
	nodes, _ := startCluster(t, 3)

	prev := int64(-1)
	for j := 0; j < 60; j++ {
		nd := nodes[j%len(nodes)]
		// Mid-gossip the view can be briefly leaderless at a follower;
		// that answers ErrNotLeader, which real clients retry. Do the
		// same, after waiting for the view to converge again, within the
		// startup's convergence bound.
		var rs []int64
		for deadline := time.Now().Add(10 * time.Second); ; {
			out, err := nd.LIN().TryIncBatch(0, 1)
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

// TestClusterGracefulHandoff shuts a follower down mid-block and checks
// the remainder is returned to and reclaimed by the leader, then
// re-granted without ever duplicating an id.
func TestClusterGracefulHandoff(t *testing.T) {
	nodes, _ := startCluster(t, 3)

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
	// hand back.
	var ids []int64
	rts, err := follower.Minter().TryIncBatch(0, 10)
	if err != nil {
		t.Fatalf("follower mint: %v", err)
	}
	for _, r := range rts {
		ids = collect(ids, []wire.Range{{First: r.First, Stride: r.Stride, Count: r.Count}})
	}

	if err := follower.Close(); err != nil {
		t.Fatalf("follower close: %v", err)
	}
	nodes[followerIdx] = nil
	if got := follower.cfg.Stats.Handoffs.Load(); got == 0 {
		t.Fatal("graceful close returned no remainder")
	}
	if got := leader.cfg.Stats.Reclaims.Load(); got == 0 {
		t.Fatal("leader reclaimed nothing")
	}

	// The reclaimed ids re-grant (freelist first) — and must not collide
	// with what the follower already minted.
	for round := 0; round < 3; round++ {
		rts, err := leader.Minter().TryIncBatch(0, 100)
		if err != nil {
			t.Fatalf("leader mint after reclaim: %v", err)
		}
		for _, r := range rts {
			ids = collect(ids, []wire.Range{{First: r.First, Stride: r.Stride, Count: r.Count}})
		}
	}
	assertUnique(t, ids)
}

// TestClusterKillRejoinNoDuplicates kills a follower abruptly (its
// unminted remainder burns), restarts it with a fresh incarnation on the
// same address, and keeps minting everywhere: still no duplicate ids.
func TestClusterKillRejoinNoDuplicates(t *testing.T) {
	nodes, _ := startCluster(t, 3)

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
	mintFrom := func(nd *Node, k int) {
		t.Helper()
		rts, err := nd.Minter().TryIncBatch(0, k)
		if err != nil {
			t.Fatalf("node %d mint: %v", nd.ID(), err)
		}
		for _, r := range rts {
			ids = collect(ids, []wire.Range{{First: r.First, Stride: r.Stride, Count: r.Count}})
		}
	}
	for _, nd := range nodes {
		mintFrom(nd, 50)
	}

	addr := victim.cfg.Addr
	seeds := victim.cfg.Seeds
	if err := victim.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}

	reborn, err := Start(Config{
		NodeID:      victim.cfg.NodeID,
		Addr:        addr,
		Seeds:       seeds,
		GossipEvery: 5 * time.Millisecond,
		BlockSize:   64,
		LINBlock:    8,
		Audit:       victim.cfg.Audit,
	})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	t.Cleanup(func() { _ = reborn.Kill() })
	nodes[victimIdx] = reborn
	waitLeader(t, nodes)

	for _, nd := range nodes {
		mintFrom(nd, 50)
	}
	assertUnique(t, ids)
}

// TestTransportPrunesClosedConns: cluster RPCs are connection-per-call,
// so every handled conn must leave the node's live set when its peer
// hangs up — a long-running leader would otherwise retain one dead conn
// per RPC ever served.
func TestTransportPrunesClosedConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nd, err := Start(Config{
		NodeID: 1,
		Addr:   ln.Addr().String(),
		Listen: func(string) (net.Listener, error) { return ln, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nd.Kill() })

	// Several full RPC exchanges, each hanging up afterwards, the way
	// every gossip/grant/forward caller does.
	d := digest{From: 2, Members: []Member{{ID: 2, Addr: "peer", Incarnation: 1, Beat: 1}}}
	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", nd.cfg.Addr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := wire.EncodeFrame(&wire.Frame{Type: wire.TGossip, ID: 1, Data: d.encode()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(b); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadFrame(bufio.NewReader(c)); err != nil {
			t.Fatalf("gossip ack: %v", err)
		}
		_ = c.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		nd.mu.Lock()
		live := len(nd.conns)
		nd.mu.Unlock()
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d transport conns still tracked after every peer hung up", live)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
