package cluster

import (
	"errors"
	"math/rand"
	stdruntime "runtime"
	"sync"
	"testing"

	"repro/internal/runtime"
	"repro/internal/wire"
)

// TestOwnershipModel drives the allocator through random histories of
// grants, mints, leaves and crashes (both burn a held block's remainder)
// and elections (fresh allocators in fresh epochs), checking every step
// against a map-based oracle: no id is ever minted twice, every minted id
// lies inside an audited grant of its epoch's stripe, and every grant
// lies above the previous one in its epoch.
func TestOwnershipModel(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		audit := NewAudit()
		minted := make(map[int64]bool)

		term := uint64(1)
		node := rng.Uint64() % MaxNodes
		alloc := &leadership{epoch: EpochOf(term, node), stripe: StripeSize, audit: audit}
		last := int64(-1) // highest id granted in the current epoch

		var held []wire.Range

		mint := func(r *wire.Range, m int64) {
			for id := r.First; id < r.First+m; id++ {
				if minted[id] {
					t.Fatalf("seed %d: id %d minted twice", seed, id)
				}
				minted[id] = true
			}
			r.First += m
			r.Count -= m
		}

		for op := 0; op < 4000; op++ {
			switch rng.Intn(12) {
			case 0: // election: a new leader, fresh allocator, fresh epoch
				term++
				node = rng.Uint64() % MaxNodes
				alloc = &leadership{epoch: EpochOf(term, node), stripe: StripeSize, audit: audit}
				last = -1
			case 1, 2, 3, 4: // grant a block to some node
				k := 1 + rng.Int63n(64)
				r, err := alloc.carve(rng.Uint64()%8, k)
				if err != nil {
					t.Fatalf("seed %d: grant: %v", seed, err)
				}
				if r.Count != k {
					t.Fatalf("seed %d: grant of %d returned %d ids", seed, k, r.Count)
				}
				if r.First <= last {
					t.Fatalf("seed %d: grant at %d not above previous %d", seed, r.First, last)
				}
				last = r.First + r.Count - 1
				held = append(held, r)
			case 5, 6, 7, 8: // mint a prefix of a held block
				if len(held) == 0 {
					continue
				}
				r := &held[rng.Intn(len(held))]
				if r.Count == 0 {
					continue
				}
				mint(r, 1+rng.Int63n(r.Count))
			case 9, 10, 11: // leave or crash: a held block's remainder is burned
				if len(held) == 0 {
					continue
				}
				i := rng.Intn(len(held))
				held = append(held[:i], held[i+1:]...)
			}
		}

		// Every minted id must lie inside some audited grant whose epoch
		// stripe contains it.
		grants := audit.Grants()
		for _, g := range grants {
			base, limit := StripeBase(g.Epoch), StripeBase(g.Epoch)+StripeSize
			if g.R.First < base || g.R.First+g.R.Count > limit {
				t.Fatalf("seed %d: grant %+v escapes epoch %d stripe", seed, g.R, g.Epoch)
			}
		}
		for id := range minted {
			ok := false
			for _, g := range grants {
				if id >= g.R.First && id < g.R.First+g.R.Count {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("seed %d: minted id %d not covered by any grant", seed, id)
			}
		}
	}
}

// TestEpochStripesDisjoint pins the arithmetic the no-duplicate-mint
// argument rests on: distinct epochs own disjoint stripes, and the
// epoch encoding is injective over (term, node).
func TestEpochStripesDisjoint(t *testing.T) {
	seen := make(map[uint64]bool)
	for term := uint64(1); term <= 3; term++ {
		for node := uint64(0); node < 5; node++ {
			e := EpochOf(term, node)
			if seen[e] {
				t.Fatalf("epoch %d reused", e)
			}
			seen[e] = true
			if TermOf(e) != term || NodeOf(e) != node {
				t.Fatalf("epoch %d decodes to (%d,%d), want (%d,%d)",
					e, TermOf(e), NodeOf(e), term, node)
			}
			if StripeBase(e+1)-StripeBase(e) != StripeSize {
				t.Fatalf("stripe %d not %d wide", e, StripeSize)
			}
		}
	}
}

// TestMinterWaitsForPrefetch: when the active block runs dry while the
// standby's prefetch is still in flight, the minter waits for that
// prefetch instead of requesting a second block. The prefetch was granted
// first, so its block is the lower one; minting a later grant before it
// would send every session on the node backwards. The request gate holds
// the prefetch's answer until either a refill beside it has returned or
// the minter is seen waiting with nothing to mint from.
func TestMinterWaitsForPrefetch(t *testing.T) {
	const block = 100
	var (
		mu    sync.Mutex
		next  int64
		calls int
		once  sync.Once
	)
	arrived, gate := make(chan struct{}), make(chan struct{})
	release := func() { once.Do(func() { close(gate) }) }
	m := newMinter(4, block, NewStats(), func(k int64) (wire.Range, error) {
		mu.Lock()
		r := wire.Range{First: next, Stride: 1, Count: k}
		next += k
		calls++
		call := calls
		mu.Unlock()
		switch call {
		case 2: // the prefetch: granted now, answered once released
			close(arrived)
			<-gate
		case 3: // a refill: the prefetch installs its block once this call's mint returns
			release()
		}
		return r, nil
	})
	var minted []int64
	mint := func(k int) []int64 {
		rs, err := m.Mint(nil, 0, k)
		if err != nil {
			t.Errorf("Mint(%d): %v", k, err)
		}
		var vals []int64
		for _, r := range rs {
			for i := int64(0); i < r.Count; i++ {
				vals = append(vals, r.First+i*r.Stride)
			}
		}
		return vals
	}

	// 60 of the first block's 100 leave it under half: the prefetch starts.
	minted = append(minted, mint(60)...)
	<-arrived
	done := make(chan []int64)
	go func() { done <- mint(60) }()
	for second := []int64(nil); second == nil; {
		select {
		case second = <-done:
			minted = append(minted, second...)
		default:
			m.mu.Lock()
			waiting := m.st.cur.remaining() == 0 && m.st.nxt.remaining() == 0
			m.mu.Unlock()
			if waiting {
				release()
			}
			stdruntime.Gosched()
		}
	}
	minted = append(minted, mint(2*block)...)
	m.close()

	if len(minted) != 60+60+2*block {
		t.Fatalf("minted %d values, want %d", len(minted), 60+60+2*block)
	}
	for i := 1; i < len(minted); i++ {
		if minted[i] <= minted[i-1] {
			t.Fatalf("mint %d handed %d after %d: the node's values went backwards", i, minted[i], minted[i-1])
		}
	}
}

// TestMintAppends: the sweeper hands a node's two backends its reused
// result buffer. The minter appends to it with no allocation over a held
// block, and a LIN mint the node refuses leaves dst as it was.
func TestMintAppends(t *testing.T) {
	m := newMinter(4, 1<<40, NewStats(), func(k int64) (wire.Range, error) {
		return wire.Range{First: 0, Stride: 1, Count: k}, nil
	})
	defer m.close()
	buf := make([]runtime.Range, 0, 4)
	allocs := testing.AllocsPerRun(100, func() {
		if rs, err := m.Mint(buf[:0], 0, 3); err != nil || len(rs) != 1 || &rs[0] != &buf[:1][0] {
			t.Fatalf("Minter.Mint(buf[:0], 0, 3) = %v, %v: want one range in buf", rs, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Minter.Mint over a held block: %.1f allocs/op, want 0", allocs)
	}

	// A lone node of an expected three never elects itself: no leader.
	nd, err := Start(Config{NodeID: 1, Addr: "127.0.0.1:1", ExpectedPeers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	dst := []runtime.Range{{First: 7, Stride: 1, Count: 1}}
	rs, err := nd.Mint(dst, 0, 2)
	if !errors.Is(err, wire.ErrNotLeader) || len(rs) != 1 || &rs[0] != &dst[0] || rs[0] != dst[0] {
		t.Fatalf("Node.Mint without a leader = %v, %v: want dst unchanged and ErrNotLeader", rs, err)
	}
}
