package cluster

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// allocator is the leader-side range allocator for one epoch. It hands
// out disjoint blocks from its epoch's stripe: a bump frontier plus a
// freelist of returned (unminted) remainders. The allocator carries no
// durable state on purpose — a new leader starts a fresh allocator in a
// fresh epoch, whose stripe cannot intersect any previous grant, so
// correctness never depends on recovering the old leader's book-keeping.
type allocator struct {
	epoch uint64
	next  int64        // frontier offset within the stripe
	free  []wire.Range // returned remainders, re-granted before fresh ids
	audit *Audit
}

func newAllocator(epoch uint64, audit *Audit) *allocator {
	return &allocator{epoch: epoch, audit: audit}
}

// grantFresh carves a block of k ids from the frontier only. Successive
// fresh grants are strictly increasing — the property LIN blocks need.
func (a *allocator) grantFresh(to uint64, k int64) (wire.Range, error) {
	if k <= 0 {
		return wire.Range{}, fmt.Errorf("cluster: grant of %d ids", k)
	}
	if a.next+k > StripeSize {
		return wire.Range{}, fmt.Errorf("cluster: epoch %d stripe exhausted", a.epoch)
	}
	r := wire.Range{First: StripeBase(a.epoch) + a.next, Stride: 1, Count: k}
	a.next += k
	a.audit.record(GrantRecord{Epoch: a.epoch, To: to, R: r})
	return r, nil
}

// grant carves a block of k ids for node `to`, preferring returned
// remainders over fresh frontier ids.
func (a *allocator) grant(to uint64, k int64) (wire.Range, error) {
	if k <= 0 {
		return wire.Range{}, fmt.Errorf("cluster: grant of %d ids", k)
	}
	var r wire.Range
	if len(a.free) > 0 {
		f := &a.free[0]
		take := k
		if take > f.Count {
			take = f.Count
		}
		r = wire.Range{First: f.First, Stride: 1, Count: take}
		f.First += take
		f.Count -= take
		if f.Count == 0 {
			a.free = a.free[1:]
		}
	} else {
		if a.next+k > StripeSize {
			return wire.Range{}, fmt.Errorf("cluster: epoch %d stripe exhausted", a.epoch)
		}
		r = wire.Range{First: StripeBase(a.epoch) + a.next, Stride: 1, Count: k}
		a.next += k
	}
	a.audit.record(GrantRecord{Epoch: a.epoch, To: to, R: r})
	return r, nil
}

// acceptReturn takes back an unminted remainder for re-grant. The epoch
// check is the handoff fence: only blocks this allocator granted itself
// (same epoch, and therefore inside its own stripe) are reusable —
// anything else is refused and stays burned, because a newer allocator
// cannot know whether an older grant was partially minted. Refusing
// costs a gap; accepting blindly could mint an id twice.
func (a *allocator) acceptReturn(epoch uint64, rs []wire.Range) bool {
	if epoch != a.epoch {
		return false
	}
	base, limit := StripeBase(a.epoch), StripeBase(a.epoch)+StripeSize
	for _, r := range rs {
		if r.Count <= 0 || r.Stride != 1 {
			return false
		}
		if r.First < base || r.First+r.Count > limit || r.First+r.Count > base+a.next {
			return false
		}
	}
	a.free = append(a.free, rs...)
	return true
}

// block is one granted id block being minted from.
type block struct {
	next, end int64
	epoch     uint64
}

func (b block) remaining() int64 { return b.end - b.next }

// Minter is the cluster node's counting backend: it implements the
// server Backend contract (IncBatch/Shape) plus the fallible
// TryIncBatch extension, minting ids from epoch-fenced blocks granted by
// the cluster leader instead of traversing a counting network. SC
// increments therefore stay node-local: the only cross-node traffic is
// one grant RPC per BlockSize mints, and even that is prefetched off the
// hot path once the active block is half used.
type Minter struct {
	shape network.Shape
	stats *Stats

	// request obtains one fresh block of k ids (set by the Node: a local
	// allocator call on the leader, a TRangeRequest RPC elsewhere).
	request func(k int64) (wire.Range, uint64, error)
	// prefetchSize is the standby block's grant size.
	blockSize int64

	mu          sync.Mutex
	wg          sync.WaitGroup // in-flight prefetch
	fetched     sync.Cond      // on mu: the in-flight prefetch has finished
	cur, nxt    block
	prefetching bool
	closed      bool
}

// NewMinter builds a minter that advertises the given shape. width is
// the wire fan the server advertises to clients; mints ignore the wire.
func NewMinter(width int, blockSize int64, stats *Stats) *Minter {
	if stats == nil {
		stats = NewStats()
	}
	m := &Minter{
		shape:     network.Shape{Width: width, Sinks: width},
		blockSize: blockSize,
		stats:     stats,
	}
	m.fetched.L = &m.mu
	return m
}

// Shape implements the server Backend contract.
func (m *Minter) Shape() network.Shape { return m.shape }

// IncBatch implements the server Backend contract: TryIncBatch, nil on
// failure. The server calls TryIncBatch instead.
func (m *Minter) IncBatch(wire, k int) []runtime.Range {
	rs, _ := m.TryIncBatch(wire, k)
	return rs
}

// TryIncBatch mints k ids, returning the covering ranges, or an error
// when the node owns no unminted ids and cannot obtain a block. The
// server maps the error onto a retryable TError, so a node cut off from
// the leader sheds load instead of stalling its combiners forever.
func (m *Minter) TryIncBatch(wireID, k int) ([]runtime.Range, error) {
	if k <= 0 {
		return nil, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []runtime.Range
	need := int64(k)
	for need > 0 {
		if m.cur.remaining() == 0 {
			if m.nxt.remaining() > 0 {
				m.cur, m.nxt = m.nxt, block{}
			} else if m.prefetching {
				// The prefetch was granted before any refill could be, so
				// its block is the lower one: a refill now would mint
				// above it and then install it as standby, sending every
				// session on this node backwards. Wait for it instead.
				m.fetched.Wait()
			} else if err := m.refillLocked(); err != nil {
				// Roll forward nothing: ids already carved into out are
				// burned (a gap), never re-minted.
				m.stats.NoRange.Add(1)
				return nil, fmt.Errorf("%w: %v", wire.ErrNoRange, err)
			}
			continue
		}
		take := m.cur.remaining()
		if take > need {
			take = need
		}
		out = append(out, runtime.Range{First: m.cur.next, Stride: 1, Count: take})
		m.cur.next += take
		need -= take
	}
	m.maybePrefetchLocked()
	return out, nil
}

// refillLocked fetches a block synchronously — the slow path that the
// prefetch exists to keep empty. The DST transport audit asserts it
// stays unused in healthy runs (Stats.RefillBlocking == 0).
func (m *Minter) refillLocked() error {
	if m.closed {
		return fmt.Errorf("minter closed")
	}
	if m.request == nil {
		return fmt.Errorf("no range source")
	}
	m.stats.RefillBlocking.Add(1)
	r, epoch, err := m.request(m.blockSize)
	if err != nil {
		return err
	}
	m.cur = block{next: r.First, end: r.First + r.Count, epoch: epoch}
	return nil
}

// maybePrefetchLocked tops up the standby block once the active one is
// half used, off the minting path.
func (m *Minter) maybePrefetchLocked() {
	if m.prefetching || m.closed || m.request == nil {
		return
	}
	if m.nxt.remaining() > 0 || m.cur.remaining() > m.blockSize/2 {
		return
	}
	m.prefetching = true
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		r, epoch, err := m.request(m.blockSize)
		m.mu.Lock()
		defer m.mu.Unlock()
		m.prefetching = false
		m.fetched.Broadcast()
		if err != nil || m.closed {
			return
		}
		m.nxt = block{next: r.First, end: r.First + r.Count, epoch: epoch}
	}()
}

// epochRanges is one grant epoch's unminted remainder.
type epochRanges struct {
	epoch uint64
	rs    []wire.Range
}

// drain marks the minter closed and surrenders the unminted remainders,
// grouped by grant epoch in ascending epoch order (a deterministic
// handoff sequence), for a graceful TRangeReturn.
func (m *Minter) drain() []epochRanges {
	m.mu.Lock()
	m.closed = true
	var out []epochRanges
	for _, b := range []block{m.cur, m.nxt} {
		if b.remaining() <= 0 {
			continue
		}
		r := wire.Range{First: b.next, Stride: 1, Count: b.remaining()}
		found := false
		for i := range out {
			if out[i].epoch == b.epoch {
				out[i].rs = append(out[i].rs, r)
				found = true
			}
		}
		if !found {
			out = append(out, epochRanges{epoch: b.epoch, rs: []wire.Range{r}})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].epoch < out[j].epoch })
	m.cur, m.nxt = block{}, block{}
	m.mu.Unlock()
	// A block a racing prefetch installs after this point is simply
	// burned — a gap, never a duplicate.
	m.wg.Wait()
	return out
}

// Owned reports the unminted ranges the node currently holds (for the
// metrics surface).
func (m *Minter) Owned() []wire.Range {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []wire.Range
	for _, b := range []block{m.cur, m.nxt} {
		if b.remaining() > 0 {
			out = append(out, wire.Range{First: b.next, Stride: 1, Count: b.remaining()})
		}
	}
	return out
}
