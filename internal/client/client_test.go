package client

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/construct"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/wire"
)

// startService serves a compiled bitonic network on loopback.
func startService(t *testing.T, width int, sopt server.Options) (*server.Server, string) {
	t.Helper()
	rt := runtime.MustCompile(construct.MustBitonic(width))
	s := server.New(rt, sopt)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, addr.String()
}

func dialC(t *testing.T, addr string, opt Options) *Client {
	t.Helper()
	c, err := Dial(addr, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestHandshakeAndBasics: the client learns the shape and the facade
// methods work end to end.
func TestHandshakeAndBasics(t *testing.T) {
	s, addr := startService(t, 8, server.Options{})
	c := dialC(t, addr, Options{})

	if c.Shape() != s.Shape() || c.Width() != 8 {
		t.Fatalf("handshake shape %+v vs server %+v", c.Shape(), s.Shape())
	}
	if v := c.Inc(3); v != 0 {
		t.Fatalf("first Inc = %d", v)
	}
	// wireFor reduction: wire ids beyond the width still work.
	if v := c.Inc(8 + 3); v != 1 {
		t.Fatalf("second Inc (reduced wire) = %d", v)
	}
	rs, err := c.IncBatchCtx(context.Background(), 0, 10, wire.ModeSC)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, r := range rs {
		n += r.Count
	}
	if n != 10 {
		t.Fatalf("IncBatch reserved %d values, want 10", n)
	}
	if v, err := c.Read(context.Background()); err != nil || v != 12 {
		t.Fatalf("Read = %d, %v; want 12", v, err)
	}
}

// TestFacadeInterfaces: the client satisfies the repo's counter facades,
// so harnesses accept it without adaptation.
func TestFacadeInterfaces(t *testing.T) {
	_, addr := startService(t, 4, server.Options{})
	c := dialC(t, addr, Options{})
	var _ runtime.Counter = c
	var _ runtime.CtxCounter = c
	var _ runtime.BatchCounter = c
}

// TestWorkloadUnmodified: the stock workload driver runs against the
// remote counter and the observed values are duplicate-free with zero
// per-process (SC) violations.
func TestWorkloadUnmodified(t *testing.T) {
	_, addr := startService(t, 8, server.Options{})
	c := dialC(t, addr, Options{Conns: 2})

	mon := consistency.NewOnline()
	ops := runtime.Workload{
		Workers:      16,
		OpsPerWorker: 25,
		Monitor:      mon,
	}.Run(c)

	if len(ops) != 16*25 {
		t.Fatalf("workload completed %d ops, want %d", len(ops), 16*25)
	}
	seen := make(map[int64]bool, len(ops))
	for _, op := range ops {
		if op.Value < 0 {
			t.Fatalf("worker %d observed error value %d", op.Worker, op.Value)
		}
		if seen[op.Value] {
			t.Fatalf("value %d observed twice", op.Value)
		}
		seen[op.Value] = true
	}
	if mon.NonSC != 0 {
		t.Fatalf("remote SC counting broke per-process order %d times", mon.NonSC)
	}
}

// TestLINOverClient: linearizable-mode increments observed through the
// client stay in real-time order.
func TestLINOverClient(t *testing.T) {
	_, addr := startService(t, 8, server.Options{})
	c := dialC(t, addr, Options{Mode: wire.ModeLIN, Conns: 2})

	mon := consistency.NewOnline()
	ops := runtime.Workload{
		Workers:      8,
		OpsPerWorker: 30,
		Monitor:      mon,
	}.Run(c)
	if len(ops) != 8*30 {
		t.Fatalf("workload completed %d ops", len(ops))
	}
	if mon.NonLin != 0 {
		t.Fatalf("LIN mode produced %d non-linearizable ops", mon.NonLin)
	}
}

// slowBackend delays sweeps so concurrent client Incs pile up in the
// re-batching mailbox.
type slowBackend struct {
	delay time.Duration
	width int // input wires served (0: 4)
	mu    sync.Mutex
	next  int64
	wires []int // entry wire of every IncBatch, in order
}

func (b *slowBackend) Shape() network.Shape {
	w := b.width
	if w == 0 {
		w = 4
	}
	return network.Shape{Width: w, Sinks: w, Balancers: w, Depth: 2}
}

func (b *slowBackend) Inc(w int) int64 { return b.IncBatch(w, 1)[0].First }

func (b *slowBackend) IncBatch(w, k int) []runtime.Range {
	time.Sleep(b.delay)
	b.mu.Lock()
	defer b.mu.Unlock()
	first := b.next
	b.next += int64(k)
	b.wires = append(b.wires, w)
	return []runtime.Range{{First: first, Stride: 1, Count: int64(k)}}
}

// TestRebatching: 64 concurrent Inc callers against a slow server cross
// the network in far fewer frames than ops — the client-side combiner is
// actually combining.
func TestRebatching(t *testing.T) {
	st := server.NewStats(0)
	s := server.New(&slowBackend{delay: 20 * time.Millisecond}, server.Options{Stats: st})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialC(t, addr.String(), Options{})

	const callers, per = 64, 4
	driveIncs(t, c, callers, per, func(i int) int { return i })
	// The handshake is 1 frame; without re-batching the incs alone would
	// be 256 more. The 20ms sweeps mean almost everything coalesces.
	if in := st.Snapshot().FramesIn; in >= callers*per/2 {
		t.Fatalf("re-batching ineffective: %d request frames for %d incs", in, callers*per)
	}
}

// driveIncs runs callers goroutines of per sequential SC incs each, caller
// i on wire wireOf(i), and checks that the values dealt are exactly
// 0..callers*per-1, each once (the slow backend hands out a dense range).
func driveIncs(t *testing.T, c *Client, callers, per int, wireOf func(i int) int) {
	t.Helper()
	var wg sync.WaitGroup
	values := make(chan int64, callers*per)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				v, err := c.IncCtx(context.Background(), wireOf(i))
				if err != nil {
					t.Error(err)
					return
				}
				values <- v
			}
		}(i)
	}
	wg.Wait()
	close(values)

	seen := make(map[int64]bool)
	for v := range values {
		if seen[v] {
			t.Fatalf("value %d dealt twice", v)
		}
		if v < 0 || v >= int64(callers*per) {
			t.Fatalf("value %d outside [0,%d)", v, callers*per)
		}
		seen[v] = true
	}
	if len(seen) != callers*per {
		t.Fatalf("completed %d/%d incs", len(seen), callers*per)
	}
}

// TestRebatchingAcrossWires: callers on different input wires share their
// connection's combining point, so a round of increments costs one frame
// per connection, not one per wire.
func TestRebatchingAcrossWires(t *testing.T) {
	t.Run("frames", func(t *testing.T) {
		// 64 callers on 16 wires, 4 sequential incs each, one connection.
		// With one combiner per wire, each wire needs its own frame for
		// each of its callers' 4 rounds: at least 16×4 = 64 frames (the
		// per-wire client measured 64–66 at -cpu 1,2,8, 65–88 under
		// -race). One combiner per connection folds every wire into each
		// round: measured 4–8, with or without -race.
		st := server.NewStats(0)
		s := server.New(&slowBackend{delay: 20 * time.Millisecond, width: 16}, server.Options{Stats: st})
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c := dialC(t, addr.String(), Options{Conns: 1})

		const callers, per, wires = 64, 4, 16
		driveIncs(t, c, callers, per, func(i int) int { return i % wires })
		in := st.Snapshot().FramesIn - 1 // minus the handshake
		t.Logf("%d inc frames for %d incs on %d wires", in, callers*per, wires)
		if in >= wires*per/2 {
			t.Fatalf("combining stops at the wire: %d inc frames for %d incs on %d wires", in, callers*per, wires)
		}
	})

	t.Run("opener-wire", func(t *testing.T) {
		// Two joiners on different wires land in one group, and the group
		// crosses as one TIncBatch on the wire of the one that opened it.
		be := &slowBackend{width: 16}
		s := server.New(be, server.Options{})
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c := dialC(t, addr.String(), Options{})

		b := &c.batchers[0]
		joinOn := func(w int) (*batchGroup, int) {
			return b.join(c.opt.BatchLimit, func() *batchGroup { return c.newGroup(w) })
		}
		g1, i1 := joinOn(3)
		g2, i2 := joinOn(5)
		if g1 != g2 || i1 != 0 || i2 != 1 {
			t.Fatalf("joiners on wires 3 and 5 did not share a group: (%p,%d) (%p,%d)", g1, i1, g2, i2)
		}
		g := b.take(c.opt.BatchLimit)
		if g != g1 || g.n != 2 || g.wire != 3 {
			t.Fatalf("took group n=%d wire=%d, want the opened group, n=2 wire=3", g.n, g.wire)
		}
		c.sendGroup(g)
		v1, err1 := waitInc(context.Background(), g, i1)
		v2, err2 := waitInc(context.Background(), g, i2)
		if err1 != nil || err2 != nil || v1 == v2 {
			t.Fatalf("dealt %d (%v) and %d (%v), want two distinct values", v1, err1, v2, err2)
		}
		be.mu.Lock()
		defer be.mu.Unlock()
		if len(be.wires) != 1 || be.wires[0] != 3 {
			t.Fatalf("server traversed on wires %v, want one batch on wire 3", be.wires)
		}
	})
}

// TestRetryOnBackpressure: shed requests retry with backoff and
// eventually land, invisibly to the caller.
func TestRetryOnBackpressure(t *testing.T) {
	st := server.NewStats(0)
	s := server.New(&slowBackend{delay: 10 * time.Millisecond}, server.Options{Mailbox: 1, Shards: 1, Stats: st})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// One shard keeps the single mailbox slot shared by every wire,
	// whatever GOMAXPROCS is. BatchLimit 1 defeats the client-side
	// combiner so every Inc is its own frame, and Conns 4 gives four
	// combining points, so four frames are in flight at once and the slot
	// actually overfills. (With one connection the lone combining point
	// would send one frame at a time and never shed.)
	c := dialC(t, addr.String(), Options{BatchLimit: 1, Conns: 4, Retries: 20})

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.IncCtx(context.Background(), i); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("Inc failed despite retries: %v", err)
	}
	if st.Snapshot().Backpressure == 0 {
		t.Skip("server never shed; retry path not exercised on this run")
	}
}

// TestBadWireSurfaces: a batch request naming an invalid wire comes back
// as the typed sentinel, not a dead connection.
func TestBadWireSurfaces(t *testing.T) {
	_, addr := startService(t, 4, server.Options{})
	c := dialC(t, addr, Options{})

	// IncBatchCtx bypasses wireFor only via the server check; force an
	// out-of-range id by lying about the width through a raw request.
	_, err := c.request(context.Background(), wire.Frame{Type: wire.TInc, Wire: 99})
	if !errors.Is(err, wire.ErrBadWire) {
		t.Fatalf("out-of-range wire: %v", err)
	}
	// The connection is still usable.
	if v := c.Inc(0); v != 0 {
		t.Fatalf("Inc after bad wire = %d", v)
	}
}

// TestClosedClient: operations on a closed client fail fast with
// ErrClosed.
func TestClosedClient(t *testing.T) {
	_, addr := startService(t, 4, server.Options{})
	c := dialC(t, addr, Options{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IncCtx(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Inc on closed client: %v", err)
	}
	if v := c.Inc(0); v != -1 {
		t.Fatalf("Inc on closed client = %d, want -1", v)
	}
}

// TestReconnect: the client survives the server dropping its connection
// mid-stream by re-dialing.
func TestReconnect(t *testing.T) {
	_, addr := startService(t, 4, server.Options{})
	c := dialC(t, addr, Options{})
	if v := c.Inc(0); v != 0 {
		t.Fatalf("first Inc = %d", v)
	}
	// Kill the pooled connection underneath the client.
	c.mu.Lock()
	cc := c.pool[0]
	c.mu.Unlock()
	cc.kill(errors.New("simulated cut"))

	if _, err := c.IncCtx(context.Background(), 0); err != nil {
		t.Fatalf("Inc after connection cut: %v", err)
	}
}

// dropFirstHellos eats each connection's first inbound frame until its
// budget runs out — the surgical fault that eats handshakes, but lets a
// later retry through.
type dropFirstHellos struct{ budget *atomic.Int32 }

func (d dropFirstHellos) Frame(conn int, inbound bool, seq int) wire.FrameFault {
	if inbound && seq == 0 && d.budget.Add(-1) >= 0 {
		return wire.FrameFault{Drop: true}
	}
	return wire.FrameFault{}
}

// TestHandshakeSurvivesDroppedFrame: a transport that eats the THello (or
// its TShape answer) must not hang Dial forever — the handshake is
// deadline-bounded and retried. Regression for a hang found under the
// chaos net drill at seed 7.
func TestHandshakeSurvivesDroppedFrame(t *testing.T) {
	var budget atomic.Int32
	budget.Store(2)
	_, addr := startService(t, 4, server.Options{Faults: dropFirstHellos{budget: &budget}})

	done := make(chan error, 1)
	go func() {
		c, err := Dial(addr, Options{DialTimeout: 150 * time.Millisecond, Retries: 4})
		if err == nil {
			if v := c.Inc(0); v != 0 {
				err = errors.New("post-handshake Inc failed")
			}
			c.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Dial through a dropped handshake: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial hung on a dropped handshake frame")
	}
}
