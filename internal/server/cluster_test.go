package server

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// mintStub is a fallible backend in the cluster-minter mold: an atomic
// cursor instead of a counting network, with a switch that makes every
// mint fail the way a node cut off from its range leader would.
type mintStub struct {
	shape network.Shape
	next  atomic.Int64
	fail  atomic.Bool
}

func newMintStub(width int) *mintStub {
	return &mintStub{shape: network.Shape{Width: width, Sinks: width}}
}

func (m *mintStub) Shape() network.Shape { return m.shape }

func (m *mintStub) Inc(w int) int64 { return m.next.Add(1) - 1 }

func (m *mintStub) IncBatch(w, k int) []runtime.Range {
	first := m.next.Add(int64(k)) - int64(k)
	return []runtime.Range{{First: first, Stride: 1, Count: int64(k)}}
}

func (m *mintStub) TryIncBatch(w, k int) ([]runtime.Range, error) {
	if m.fail.Load() {
		return nil, wire.ErrNoRange
	}
	return m.IncBatch(w, k), nil
}

// TestHelloNodeAdvertisement pins the handshake extension: a THello
// carrying the node flag gets the advertisement appended, a plain THello
// gets the pre-cluster reply — against the same server.
func TestHelloNodeAdvertisement(t *testing.T) {
	owned := []wire.Range{{First: 1 << 34, Stride: 1, Count: 4096}}
	opt := Options{NodeInfo: func() (uint64, uint64, []wire.Range) { return 7, 1031, owned }}
	s, _, addr := startServer(t, 4, opt)
	c := dialT(t, addr)

	c.send(wire.Frame{Type: wire.THello, ID: 1, NodeAd: true})
	f := c.recv()
	if f.Type != wire.TShape || !f.NodeAd || f.Node != 7 || f.Epoch != 1031 {
		t.Fatalf("extended hello: %+v", f)
	}
	if len(f.Rs) != 1 || f.Rs[0] != owned[0] {
		t.Fatalf("extended hello ranges: %+v", f.Rs)
	}
	if f.Shape != s.Shape() {
		t.Fatalf("extended hello shape: %+v", f.Shape)
	}

	c.send(wire.Frame{Type: wire.THello, ID: 2})
	if f := c.recv(); f.Type != wire.TShape || f.NodeAd || len(f.Rs) != 0 {
		t.Fatalf("plain hello must stay pre-extension shaped: %+v", f)
	}
}

// TestFallibleBackendShedsAndRecovers drives the fail-fast backend seam
// through both increment paths: while the backend cannot mint, SC and
// LIN requests are answered with the retryable no-range error (nothing
// issued), and both paths resume once blocks are available again.
func TestFallibleBackendShedsAndRecovers(t *testing.T) {
	m := newMintStub(4)
	s := New(m, Options{})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	c := dialT(t, addr.String())

	m.fail.Store(true)
	c.send(wire.Frame{Type: wire.TInc, ID: 1, Wire: 0})
	if f := c.recv(); f.Type != wire.TError || f.Code != wire.CodeNoRange {
		t.Fatalf("SC inc while out of ranges: %+v", f)
	}
	c.send(wire.Frame{Type: wire.TInc, ID: 2, Wire: 0, Mode: wire.ModeLIN})
	if f := c.recv(); f.Type != wire.TError || f.Code != wire.CodeNoRange {
		t.Fatalf("LIN inc while out of ranges: %+v", f)
	}
	if got := s.Issued(); got != 0 {
		t.Fatalf("shed requests must not count as issued, got %d", got)
	}

	m.fail.Store(false)
	c.send(wire.Frame{Type: wire.TIncBatch, ID: 3, Wire: 0, K: 3})
	f := c.recv()
	if f.Type != wire.TRanges {
		t.Fatalf("SC after recovery: %+v", f)
	}
	c.send(wire.Frame{Type: wire.TInc, ID: 4, Wire: 0, Mode: wire.ModeLIN})
	if f := c.recv(); f.Type != wire.TValue {
		t.Fatalf("LIN after recovery: %+v", f)
	}
	if got := s.Issued(); got != 4 {
		t.Fatalf("issued after recovery: got %d, want 4", got)
	}
}

// linStub is an Options.LIN backend in the cluster-forward mold: a
// cursor at a stripe base disjoint from mintStub's, a log of every
// call's k, and an optional gate each call takes its outcome from, so a
// test can hold a LIN sweep mid-forward and then let it succeed or fail.
type linStub struct {
	next    atomic.Int64
	entered chan int   // each call sends its k on entry; buffered past any test's call count, so a call never blocks on it
	gate    chan error // nil: calls return at once; else each takes one outcome

	mu    sync.Mutex
	calls []int
}

func newLINStub(base int64, gated bool) *linStub {
	l := &linStub{entered: make(chan int, 64)}
	l.next.Store(base)
	if gated {
		l.gate = make(chan error)
	}
	return l
}

func (l *linStub) Shape() network.Shape { return network.Shape{Width: 4, Sinks: 4} }

func (l *linStub) IncBatch(w, k int) []runtime.Range {
	rs, _ := l.TryIncBatch(w, k)
	return rs
}

func (l *linStub) TryIncBatch(w, k int) ([]runtime.Range, error) {
	l.mu.Lock()
	l.calls = append(l.calls, k)
	l.mu.Unlock()
	l.entered <- k
	if l.gate != nil {
		if err := <-l.gate; err != nil {
			return nil, err
		}
	}
	first := l.next.Add(int64(k)) - int64(k)
	return []runtime.Range{{First: first, Stride: 1, Count: int64(k)}}, nil
}

func (l *linStub) callLog() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.calls...)
}

// awaitEntered waits for the LIN backend's next call and returns its k.
func awaitEntered(t *testing.T, l *linStub) int {
	t.Helper()
	select {
	case k := <-l.entered:
		return k
	case <-time.After(5 * time.Second):
		t.Fatal("the LIN sweeper never called its backend")
		return 0
	}
}

// awaitQueued waits until the LIN mailbox holds n requests.
func awaitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.linMail) != n {
		if time.Now().After(deadline) {
			t.Fatalf("LIN mailbox holds %d requests, want %d", len(s.linMail), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLINForwardHook pins the cluster LIN seam: with Options.LIN set,
// LIN increments are minted by that backend, not the main one, while SC
// increments still use the main backend.
func TestLINForwardHook(t *testing.T) {
	m := newMintStub(4)
	lin := newLINStub(1<<40, false) // cluster stripe ids: disjoint from the stub's
	s := New(m, Options{LIN: lin})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	c := dialT(t, addr.String())

	c.send(wire.Frame{Type: wire.TInc, ID: 1, Wire: 0, Mode: wire.ModeLIN})
	if f := c.recv(); f.Type != wire.TValue || f.Value != 1<<40 {
		t.Fatalf("forwarded LIN inc: %+v", f)
	}
	c.send(wire.Frame{Type: wire.TIncBatch, ID: 2, Wire: 0, K: 5, Mode: wire.ModeLIN})
	f := c.recv()
	if f.Type != wire.TRanges || len(f.Rs) != 1 || f.Rs[0].First != 1<<40+1 || f.Rs[0].Count != 5 {
		t.Fatalf("forwarded LIN batch: %+v", f)
	}
	c.send(wire.Frame{Type: wire.TInc, ID: 3, Wire: 0})
	if f := c.recv(); f.Type != wire.TValue || f.Value != 0 {
		t.Fatalf("SC inc must still use the local backend: %+v", f)
	}
	if got := s.Issued(); got != 7 {
		t.Fatalf("issued: got %d, want 7", got)
	}
}

// TestSCNotHeldBehindLINForward: a LIN forward in flight must not hold
// up the SC frames behind it on the same connection. The reader posts
// LIN to the LIN sweeper and moves on, so the SC reply arrives while the
// LIN backend is still blocked.
func TestSCNotHeldBehindLINForward(t *testing.T) {
	m := newMintStub(4)
	lin := newLINStub(1<<40, true)
	s := New(m, Options{LIN: lin})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	c := dialT(t, addr.String())

	c.send(wire.Frame{Type: wire.TInc, ID: 1, Wire: 0, Mode: wire.ModeLIN})
	awaitEntered(t, lin)
	c.send(wire.Frame{Type: wire.TInc, ID: 2, Wire: 1})
	_ = c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f := c.recv(); f.ID != 2 || f.Type != wire.TValue || f.Value != 0 {
		t.Fatalf("first reply while the LIN forward is blocked: %+v, want the SC value", f)
	}
	lin.gate <- nil
	if f := c.recv(); f.ID != 1 || f.Type != wire.TValue || f.Value != 1<<40 {
		t.Fatalf("LIN reply after release: %+v", f)
	}
}

// TestLINForwardsOncePerSweep: LIN frames from several connections that
// queue behind a blocked forward are swept together — one backend call
// for their total k — and dealt the values in arrival order.
func TestLINForwardsOncePerSweep(t *testing.T) {
	m := newMintStub(4)
	const base = 1 << 40
	lin := newLINStub(base, true)
	s := New(m, Options{LIN: lin})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	cs := []*tconn{dialT(t, addr.String()), dialT(t, addr.String()), dialT(t, addr.String())}

	cs[0].send(wire.Frame{Type: wire.TInc, ID: 1, Wire: 0, Mode: wire.ModeLIN})
	if k := awaitEntered(t, lin); k != 1 {
		t.Fatalf("first sweep forwarded k=%d, want 1", k)
	}

	// Queue N frames round-robin over the three connections, each landing
	// in the mailbox before the next is sent, so arrival order is known.
	type sent struct {
		c    *tconn
		id   uint64
		k    int64
		want int64 // first value the request must be dealt
	}
	const n = 9
	var queued []sent
	next, total := int64(base+1), 0
	for i := 0; i < n; i++ {
		f := wire.Frame{Type: wire.TInc, ID: uint64(100 + i), Wire: int64(i % 4), Mode: wire.ModeLIN}
		k := int64(1)
		if i%4 == 3 {
			f.Type, f.K, k = wire.TIncBatch, 3, 3
		}
		c := cs[i%len(cs)]
		c.send(f)
		awaitQueued(t, s, i+1)
		queued = append(queued, sent{c, f.ID, k, next})
		next += k
		total += int(k)
	}

	lin.gate <- nil // the first sweep
	if f := cs[0].recv(); f.ID != 1 || f.Value != base {
		t.Fatalf("first sweep's reply: %+v", f)
	}
	if k := awaitEntered(t, lin); k != total {
		t.Fatalf("second sweep forwarded k=%d, want the queued total %d", k, total)
	}
	lin.gate <- nil
	for _, q := range queued {
		f := q.c.recv()
		got := f.Value
		if f.Type == wire.TRanges {
			if len(f.Rs) != 1 || f.Rs[0].Count != q.k {
				t.Fatalf("request %d: ranges %+v, want one of %d", q.id, f.Rs, q.k)
			}
			got = f.Rs[0].First
		}
		if f.ID != q.id || got != q.want {
			t.Fatalf("reply %+v: want id %d dealt %d (arrival order)", f, q.id, q.want)
		}
	}
	if calls := lin.callLog(); len(calls) != 2 || calls[0] != 1 || calls[1] != total {
		t.Fatalf("LIN backend calls %v, want [1 %d]", calls, total)
	}
}

// TestCloseDrainsInFlightLINForward is the drain regression: a server
// closed while a LIN forward is mid-flight, with another LIN request
// queued behind it, must deliver exactly one reply per request — the
// forward's error to the failed sweep's member, the minted value to the
// completed sweep's — never zero, never two.
func TestCloseDrainsInFlightLINForward(t *testing.T) {
	m := newMintStub(4)
	lin := newLINStub(99, true)
	s := New(m, Options{LIN: lin})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c0 := dialT(t, addr.String())
	c1 := dialT(t, addr.String())
	c0.send(wire.Frame{Type: wire.TInc, ID: 10, Wire: 0, Mode: wire.ModeLIN})
	awaitEntered(t, lin)
	c1.send(wire.Frame{Type: wire.TInc, ID: 20, Wire: 0, Mode: wire.ModeLIN})
	awaitQueued(t, s, 1)

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Close is now draining; the forward has not resolved yet. Fail it
	// (its target was killed under it), then let the next sweep complete.
	time.Sleep(10 * time.Millisecond)
	lin.gate <- wire.ErrNotLeader
	awaitEntered(t, lin)
	lin.gate <- nil

	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an in-flight LIN forward")
	}

	// Each connection: exactly one reply, then EOF — nothing lost,
	// nothing duplicated.
	f0 := c0.recv()
	if f0.Type != wire.TError || f0.ID != 10 || f0.Code != wire.CodeNotLeader {
		t.Fatalf("failed sweep's reply: %+v", f0)
	}
	assertEOF(t, c0)
	f1 := c1.recv()
	if f1.Type != wire.TValue || f1.ID != 20 || f1.Value != 99 {
		t.Fatalf("completed sweep's reply: %+v", f1)
	}
	assertEOF(t, c1)
	if calls := lin.callLog(); len(calls) != 2 {
		t.Fatalf("LIN backend calls %v, want one failed and one completed sweep", calls)
	}
}

// assertEOF checks the server closed the connection without sending
// another frame.
func assertEOF(t *testing.T, c *tconn) {
	t.Helper()
	_ = c.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, err := wire.ReadFrame(c.br)
	if err == nil {
		t.Fatalf("unexpected extra frame after drain: %+v", f)
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		// A reset is acceptable too; only a timeout (meaning the server
		// left the conn open with nothing to say) would also land here,
		// and either way no duplicate frame arrived.
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("connection left open after Close: %v", err)
		}
	}
}
