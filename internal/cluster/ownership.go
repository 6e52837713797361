package cluster

import (
	"fmt"
	"sync"

	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// block is one granted id block being minted from.
type block struct{ next, end int64 }

func (b block) remaining() int64 { return b.end - b.next }

func (b block) rng() wire.Range { return wire.Range{First: b.next, Stride: 1, Count: b.remaining()} }

// mintAction is what a take leaves its caller to do.
type mintAction uint8

const (
	mintNone     mintAction = iota
	mintPrefetch            // request a standby block off the minting path
	mintWait                // wait for the in-flight prefetch to land, then take the rest
	mintRefill              // request a block now, then take the rest
)

// mintState is a node's whole minting rule, with no lock, goroutine or
// clock: the Minter carries out the actions it returns. The node mints
// from cur, keeps nxt as the standby, and so holds at most 2·size ids.
// At most one block request is in flight: a take that runs dry beside
// the prefetch waits for it, since its block is the lower one.
type mintState struct {
	size        int64 // grant size
	cur, nxt    block
	prefetching bool
	closed      bool
	burned      int64 // ids held at close, or landed after it
}

// take appends up to k ids to out, in ascending order, and returns how
// many it fell short by. It falls short only when cur and nxt are spent,
// and its action says how to go on; a take that is met asks for a
// prefetch once cur is half used.
func (s *mintState) take(out []runtime.Range, k int64) ([]runtime.Range, int64, mintAction) {
	for k > 0 {
		if s.cur.remaining() == 0 {
			if s.nxt.remaining() == 0 {
				if s.prefetching {
					return out, k, mintWait
				}
				return out, k, mintRefill
			}
			s.cur, s.nxt = s.nxt, block{}
		}
		n := min(s.cur.remaining(), k)
		out = append(out, runtime.Range{First: s.cur.next, Stride: 1, Count: n})
		s.cur.next += n
		k -= n
	}
	if s.prefetching || s.nxt.remaining() > 0 || s.cur.remaining() > s.size/2 {
		return out, 0, mintNone
	}
	s.prefetching = true
	return out, 0, mintPrefetch
}

// granted installs a block that landed: as cur if that is spent, else
// as nxt. After close it is burned: a gap, never a duplicate.
func (s *mintState) granted(b block) {
	s.prefetching = false
	if s.closed {
		s.burned += b.remaining()
	} else if s.cur.remaining() == 0 {
		s.cur = b
	} else {
		s.nxt = b
	}
}

// fetchFailed ends a prefetch that obtained no block.
func (s *mintState) fetchFailed() { s.prefetching = false }

// owned lists the unminted ranges the node holds, active block first.
func (s *mintState) owned() []wire.Range {
	var out []wire.Range
	for _, b := range []block{s.cur, s.nxt} {
		if b.remaining() > 0 {
			out = append(out, b.rng())
		}
	}
	return out
}

// close closes the state and burns the unminted ids it holds, as a
// crash would: a gap, which SC counting tolerates, never a duplicate.
func (s *mintState) close() {
	s.closed = true
	s.burned += s.cur.remaining() + s.nxt.remaining()
	s.cur, s.nxt = block{}, block{}
}

// Minter is the cluster node's counting backend: it implements the
// server Backend contract (Mint/Shape), minting ids from epoch-fenced
// blocks granted by the cluster leader instead of traversing a counting
// network. SC increments therefore stay node-local: the only cross-node
// traffic is one grant RPC per BlockSize mints, and even that is
// prefetched off the hot path. The Minter carries out mintState's
// actions under one lock.
type Minter struct {
	shape network.Shape
	stats *Stats
	// request obtains one fresh block of k ids: a local allocator call on
	// the leader, a TRangeRequest RPC elsewhere.
	request func(k int64) (wire.Range, error)

	mu     sync.Mutex
	st     mintState
	landed chan struct{} // closed once the latest prefetch has landed
}

// newMinter builds a minter that advertises the given shape (width is
// the wire fan clients see; mints ignore the wire) and draws blocks of
// blockSize ids from request.
func newMinter(width int, blockSize int64, stats *Stats, request func(k int64) (wire.Range, error)) *Minter {
	landed := make(chan struct{})
	close(landed)
	return &Minter{shape: network.Shape{Width: width, Sinks: width}, stats: stats,
		request: request, st: mintState{size: blockSize}, landed: landed}
}

// Shape implements the server Backend contract.
func (m *Minter) Shape() network.Shape { return m.shape }

// Mint implements the server Backend contract: it mints k ids and
// appends the covering ranges to dst, or returns dst unchanged and an
// error when the node owns no unminted ids and cannot obtain a block.
// The server maps the error onto a retryable TError, so a node cut off
// from the leader sheds load instead of stalling its combiners forever.
// Mints ignore the wire.
func (m *Minter) Mint(dst []runtime.Range, _, k int) ([]runtime.Range, error) {
	if k <= 0 {
		return dst, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := dst
	for need := int64(k); ; {
		var act mintAction
		out, need, act = m.st.take(out, need)
		switch act {
		case mintPrefetch:
			m.prefetch()
		case mintWait:
			landed := m.landed
			m.mu.Unlock()
			<-landed
			m.mu.Lock()
			continue
		case mintRefill:
			if err := m.refill(); err != nil {
				// Ids already carved into out are burned (a gap), never
				// re-minted.
				m.stats.NoRange.Add(1)
				return dst, fmt.Errorf("%w: %v", wire.ErrNoRange, err)
			}
			continue
		}
		return out, nil
	}
}

// refill fetches a block under the lock: the slow path the prefetch
// keeps empty (the DST audit asserts Stats.RefillBlocking == 0).
func (m *Minter) refill() error {
	if m.st.closed {
		return fmt.Errorf("minter closed")
	}
	m.stats.RefillBlocking.Add(1)
	r, err := m.request(m.st.size)
	if err != nil {
		return err
	}
	m.st.granted(block{next: r.First, end: r.First + r.Count})
	return nil
}

// prefetch requests the standby block off the minting path.
func (m *Minter) prefetch() {
	landed, size := make(chan struct{}), m.st.size
	m.landed = landed
	go func() {
		r, err := m.request(size)
		m.mu.Lock()
		if err != nil {
			m.st.fetchFailed()
		} else {
			m.st.granted(block{next: r.First, end: r.First + r.Count})
		}
		m.mu.Unlock()
		close(landed)
	}()
}

// close closes the minter, burning its unminted ids, and returns once
// any in-flight prefetch has landed (and burned).
func (m *Minter) close() {
	m.mu.Lock()
	m.st.close()
	landed := m.landed
	m.mu.Unlock()
	<-landed
}

// Owned reports the unminted ranges the node currently holds (for the
// metrics surface).
func (m *Minter) Owned() []wire.Range {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st.owned()
}
