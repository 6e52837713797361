package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/construct"
	"repro/internal/fault"
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
	if r := consistency.Audit(ops, math.MaxInt64); r.Duplicates != 0 || r.OutOfRange != 0 {
		t.Fatalf("values not unique and non-negative: %+v", r)
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

// TestLINBesideSC: LIN increments stay linearizable while SC traffic
// sweeps the same network. 8 LIN workers on one client and 32 SC workers
// on another share a server at default options; no LIN op may return
// below a value that a LIN op which had already ended returned, and the
// values of both together are exactly 0..n-1.
func TestLINBesideSC(t *testing.T) {
	_, addr := startService(t, 8, server.Options{})
	lin := dialC(t, addr, Options{Mode: wire.ModeLIN, Conns: 2})
	sc := dialC(t, addr, Options{Conns: 8})

	var linOps, scOps []consistency.Record
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		linOps = runtime.Workload{Workers: 8, OpsPerWorker: 40}.Run(lin)
	}()
	go func() {
		defer wg.Done()
		scOps = runtime.Workload{Workers: 32, OpsPerWorker: 40}.Run(sc)
	}()
	wg.Wait()

	for i := range linOps {
		linOps[i].LIN = true
	}
	for i := range scOps {
		scOps[i].Process += 8 // the SC client's workers are other processes
	}
	all := append(linOps, scOps...)
	r := consistency.Audit(all, int64(len(all)))
	if r.LIN.NonLin != 0 {
		t.Fatalf("LIN ops beside SC traffic: %+v", r)
	}
	if r.Duplicates != 0 || r.OutOfRange != 0 {
		t.Fatalf("values are not exactly 0..n-1: %+v", r)
	}
}

// TestSCProcessOrder: 32 SC workers over 8 connections to a server at
// default options keep per-process order (F_nsc = 0). One sweeper runs
// the traversals one after another, so they keep real-time order too
// (F_nl = 0).
func TestSCProcessOrder(t *testing.T) {
	_, addr := startService(t, 8, server.Options{})
	c := dialC(t, addr, Options{Conns: 8})
	ops := runtime.Workload{Workers: 32, OpsPerWorker: 40}.Run(c)

	r := consistency.Audit(ops, int64(len(ops)))
	if r.SessionBreaks() != 0 || r.SC.NonLin != 0 {
		t.Fatalf("SC ops broke per-process or real-time order: %+v", r)
	}
	if r.Duplicates != 0 || r.OutOfRange != 0 {
		t.Fatalf("values are not exactly 0..n-1: %+v", r)
	}
}

// slowBackend delays sweeps so concurrent client Incs pile up in the
// re-batching mailbox. With hold set, every sweep also counts itself in
// entered and then waits until hold is closed.
type slowBackend struct {
	delay   time.Duration
	width   int // input wires served (0: 4)
	hold    chan struct{}
	entered atomic.Int32
	mu      sync.Mutex
	next    int64
	wires   []int // entry wire of every IncBatch, in order
}

func (b *slowBackend) Shape() network.Shape {
	w := b.width
	if w == 0 {
		w = 4
	}
	return network.Shape{Width: w, Sinks: w, Balancers: w, Depth: 2}
}

func (b *slowBackend) Mint(dst []runtime.Range, w, k int) ([]runtime.Range, error) {
	time.Sleep(b.delay)
	if b.hold != nil {
		b.entered.Add(1)
		<-b.hold
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	first := b.next
	b.next += int64(k)
	b.wires = append(b.wires, w)
	return append(dst, runtime.Range{First: first, Stride: 1, Count: int64(k)}), nil
}

// TestRebatching: 64 concurrent Inc callers of either mode against a slow
// server cross the network in far fewer frames than ops — the
// client-side combiner is actually combining — and every op is served in
// the mode it asked for.
func TestRebatching(t *testing.T) {
	const callers, per = 64, 4
	for _, mode := range []wire.Mode{wire.ModeSC, wire.ModeLIN} {
		t.Run(mode.String(), func(t *testing.T) {
			st := server.NewStats(0)
			s := server.New(&slowBackend{delay: 20 * time.Millisecond}, server.Options{Stats: st})
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			c := dialC(t, addr.String(), Options{Mode: mode})

			driveIncs(t, c, callers, per, func(i int) int { return i })
			// The handshake is 1 frame; without re-batching the incs alone
			// would be 256 more. The 20ms sweeps mean almost everything
			// coalesces.
			snap := st.Snapshot()
			if in := snap.FramesIn; in >= callers*per/2 {
				t.Fatalf("re-batching ineffective: %d request frames for %d incs", in, callers*per)
			}
			// The server counts increments, a combined frame's k of them
			// (a retried frame counts again).
			own, other := snap.SCOps, snap.LINOps
			if mode == wire.ModeLIN {
				own, other = other, own
			}
			if own < callers*per || other != 0 {
				t.Fatalf("served %d SC and %d LIN increments for %d %v incs", snap.SCOps, snap.LINOps, callers*per, mode)
			}
		})
	}
}

// TestCancelInsideGroup: cancelling members of a combined group touches
// no one else. Eight callers share one group; while its frame is out,
// the opener's context and one other member's are cancelled. The group
// still crosses as exactly one frame — the opener sends even when
// cancelled — the other six get six distinct values, and the cancelled
// member returns its context error.
func TestCancelInsideGroup(t *testing.T) {
	st := server.NewStats(0)
	be := &slowBackend{hold: make(chan struct{})}
	s := server.New(be, server.Options{Stats: st})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	unhold := sync.OnceFunc(func() { close(be.hold) })
	defer unhold()
	c := dialC(t, addr.String(), Options{})

	// The test holds the SC turn, so every member joins the group while
	// its opener waits.
	b := &c.batchers[wire.ModeSC]
	release := holdTurn(b)
	const members, other = 8, 5
	res := make([]chan incResult, members)
	cancels := make([]context.CancelFunc, members)
	for i := range cancels {
		var ctx context.Context
		ctx, cancels[i] = context.WithCancel(context.Background())
		defer cancels[i]()
		res[i] = goInc(ctx, c, i)
		if i == 0 {
			waitFor(t, "the opener to install its group", func() bool { return openMembers(b) != 0 })
		}
	}
	waitFor(t, "every member to join", func() bool { return openMembers(b) == members })
	release()
	waitFor(t, "the group's frame to reach the backend", func() bool { return be.entered.Load() == 1 })
	cancels[0]()
	cancels[other]()
	if r := <-res[other]; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled member returned %d, %v; want context.Canceled", r.v, r.err)
	}
	unhold()

	seen := make(map[int64]bool, members)
	for i := 1; i < members; i++ {
		if i == other {
			continue
		}
		r := <-res[i]
		if r.err != nil {
			t.Fatalf("member %d: %v", i, r.err)
		}
		if seen[r.v] {
			t.Fatalf("value %d dealt twice", r.v)
		}
		seen[r.v] = true
	}
	// The opener may see its value or its cancellation.
	if r := <-res[0]; r.err != nil && !errors.Is(r.err, context.Canceled) || r.err == nil && seen[r.v] {
		t.Fatalf("opener returned %d, %v", r.v, r.err)
	}
	if in := st.Snapshot().FramesIn; in != 2 {
		t.Fatalf("server read %d frames, want 2: the hello and one increment frame", in)
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	if len(be.wires) != 1 || be.wires[0] != 0 {
		t.Fatalf("server traversed on wires %v, want one batch on the opener's wire 0", be.wires)
	}
}

// TestOpenerDeadlineBehindStalledFrame: an opener waiting for its turn
// behind a stalled frame still returns on its own deadline. Its group is
// dropped unsent, and its members join a later group that goes out once
// the stalled frame is answered: no value is minted for the opener, and
// every member gets a distinct one.
func TestOpenerDeadlineBehindStalledFrame(t *testing.T) {
	st := server.NewStats(0)
	be := &slowBackend{hold: make(chan struct{})}
	s := server.New(be, server.Options{Stats: st})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	unhold := sync.OnceFunc(func() { close(be.hold) })
	defer unhold()
	c := dialC(t, addr.String(), Options{})
	b := &c.batchers[wire.ModeSC]

	// A lone caller's frame stalls in the backend; its opener holds the
	// SC turn until the reply comes.
	first := goInc(context.Background(), c, 1)
	waitFor(t, "the first frame to stall in the backend", func() bool { return be.entered.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	opener := goInc(ctx, c, 0)
	waitFor(t, "the opener to install its group or give up", func() bool {
		return openMembers(b) != 0 || len(opener) > 0
	})
	const members = 6
	res := make([]chan incResult, members)
	for i := range res {
		res[i] = goInc(context.Background(), c, 2+i%2)
	}
	select {
	case r := <-opener:
		if !errors.Is(r.err, fault.ErrTimeout) {
			t.Fatalf("opener returned %d, %v; want ErrTimeout", r.v, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("opener still waiting behind the stalled frame past its deadline")
	}
	if n := be.entered.Load(); n != 1 {
		t.Fatalf("backend entered %d times before the stalled frame returned, want 1", n)
	}
	waitFor(t, "every member to join the next group", func() bool { return openMembers(b) == members })
	unhold()

	seen := make(map[int64]bool, members+1)
	for _, ch := range append(res, first) {
		r := <-ch
		if r.err != nil {
			t.Fatalf("caller: %v", r.err)
		}
		if seen[r.v] {
			t.Fatalf("value %d dealt twice", r.v)
		}
		seen[r.v] = true
	}
	for v := int64(0); v <= members; v++ {
		if !seen[v] {
			t.Fatalf("values %v, want exactly 0..%d: none minted for the opener", seen, members)
		}
	}
	if in := st.Snapshot().FramesIn; in != 3 {
		t.Fatalf("server read %d frames, want 3: the hello, the stalled frame and the members' frame", in)
	}
}

type incResult struct {
	v   int64
	err error
}

// goInc runs one combined SC increment on wire w in its own goroutine.
func goInc(ctx context.Context, c *Client, w int) chan incResult {
	ch := make(chan incResult, 1)
	go func() {
		v, err := c.IncMode(ctx, w, wire.ModeSC)
		ch <- incResult{v, err}
	}()
	return ch
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

// TestRebatchingAcrossWires: callers on different input wires and behind
// different pooled connections share their mode's one combining point, so
// a round of increments costs one frame, not one per wire or per
// connection.
func TestRebatchingAcrossWires(t *testing.T) {
	t.Run("frames", func(t *testing.T) {
		// 64 callers on 16 wires, 4 sequential incs each. With one
		// combiner per wire, each wire needs its own frame for each of its
		// callers' 4 rounds: at least 16×4 = 64 frames (the per-wire
		// client measured 64–66 at -cpu 1,2,8, 65–88 under -race). With
		// one combiner per pooled connection, Conns 4 needs a frame per
		// connection per round: at least 4×4 = 16 (measured 16–25 at
		// -cpu 1,2,8, with or without -race). One combiner per mode
		// folds every wire and every connection into each round:
		// measured 4–8 at either pool size.
		const callers, per, wires = 64, 4, 16
		for _, tc := range []struct{ conns, max int }{
			{conns: 1, max: wires * per / 2},
			{conns: 4, max: 4 * per},
		} {
			t.Run(fmt.Sprintf("conns=%d", tc.conns), func(t *testing.T) {
				st := server.NewStats(0)
				s := server.New(&slowBackend{delay: 20 * time.Millisecond, width: 16}, server.Options{Stats: st})
				addr, err := s.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				c := dialC(t, addr.String(), Options{Conns: tc.conns})

				driveIncs(t, c, callers, per, func(i int) int { return i % wires })
				in := st.Snapshot().FramesIn - 1 // minus the handshake
				t.Logf("%d inc frames for %d incs on %d wires and %d connections", in, callers*per, wires, tc.conns)
				if in >= uint64(tc.max) {
					t.Fatalf("combining stops at the wire or the connection: %d inc frames for %d incs on %d wires and %d connections, want < %d",
						in, callers*per, wires, tc.conns, tc.max)
				}
			})
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
		joinOn := func(w int) (*batchGroup, int) { return c.join(b, w, wire.ModeSC) }
		g1, i1 := joinOn(3)
		g2, i2 := joinOn(5)
		if g1 != g2 || i1 != 0 || i2 != 1 {
			t.Fatalf("joiners on wires 3 and 5 did not share a group: (%p,%d) (%p,%d)", g1, i1, g2, i2)
		}
		g := g1
		takeAndSeal(b, g)
		if openMembers(b) != 0 || g.n != 2 || g.wire != 3 {
			t.Fatalf("sealed group n=%d wire=%d (still open: %v), want detached, n=2 wire=3", g.n, g.wire, openMembers(b) != 0)
		}
		c.sendGroup(b, g)
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
	s := server.New(&slowBackend{delay: 10 * time.Millisecond}, server.Options{Mailbox: 1, Stats: st})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// BatchLimit 1 defeats the client-side combiner so every Inc is its
	// own frame. A client's one combining point per mode sends one frame
	// at a time, so four clients put four frames in flight at once and
	// the single mailbox slot actually overfills.
	const clients, callers = 4, 16
	cs := make([]*Client, clients)
	for i := range cs {
		cs[i] = dialC(t, addr.String(), Options{BatchLimit: 1, Retries: 20})
	}

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cs[i%clients].IncCtx(context.Background(), i); err != nil {
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

// TestOversizeBatchSparesConnection: a batch above the wire's bound on K
// is refused by the encoder before any byte of it reaches the shared
// connection. The call fails alone, unretried, and the Inc callers on the
// same connection never see a transport error.
func TestOversizeBatchSparesConnection(t *testing.T) {
	_, addr := startService(t, 4, server.Options{})
	c := dialC(t, addr, Options{})

	var done, incErrs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.IncCtx(context.Background(), i); err != nil {
					incErrs.Add(1)
				}
				done.Add(1)
			}
		}(i)
	}
	waitFor(t, "incs under way", func() bool { return done.Load() >= 100 })
	_, err := c.IncBatchCtx(context.Background(), 0, 1<<32+1, wire.ModeSC)
	after := done.Load()
	waitFor(t, "incs after the oversize call", func() bool { return done.Load() >= after+100 })
	close(stop)
	wg.Wait()

	if !errors.Is(err, wire.ErrBadFrame) {
		t.Fatalf("oversize batch: %v, want wire.ErrBadFrame", err)
	}
	if r := c.Stats().Retries; r != 0 {
		t.Fatalf("%d retries: the oversize frame reached the connection", r)
	}
	if n := incErrs.Load(); n != 0 {
		t.Fatalf("%d Inc calls failed beside the oversize batch", n)
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
// simulation's frame faults at seed 7.
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
