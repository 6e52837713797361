package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/consistency"
	"repro/internal/construct"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// startServer compiles a bitonic network, serves it on loopback and
// returns the pieces; Close is registered as cleanup.
func startServer(t *testing.T, width int, opt Options) (*Server, *runtime.Network, string) {
	t.Helper()
	rt := runtime.MustCompile(construct.MustBitonic(width))
	s := New(rt, opt)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, rt, addr.String()
}

// tconn is a raw-frame test client.
type tconn struct {
	t   *testing.T
	nc  net.Conn
	br  *bufio.Reader
	buf []byte
}

func dialT(t *testing.T, addr string) *tconn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return &tconn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

// send writes frames in one batch (pipelining on the wire).
func (c *tconn) send(fs ...wire.Frame) {
	c.t.Helper()
	c.buf = c.buf[:0]
	for i := range fs {
		var err error
		c.buf, err = wire.AppendFrame(c.buf, &fs[i])
		if err != nil {
			c.t.Fatal(err)
		}
	}
	if _, err := c.nc.Write(c.buf); err != nil {
		c.t.Fatal(err)
	}
}

func (c *tconn) recv() wire.Frame {
	c.t.Helper()
	f, err := wire.ReadFrame(c.br)
	if err != nil {
		c.t.Fatalf("recv: %v", err)
	}
	return f
}

// TestRequestResponse exercises every opcode over one connection.
func TestRequestResponse(t *testing.T) {
	s, _, addr := startServer(t, 4, Options{Stats: NewStats(0)})
	c := dialT(t, addr)

	c.send(wire.Frame{Type: wire.THello, ID: 1})
	if f := c.recv(); f.Type != wire.TShape || f.ID != 1 || f.Shape != s.Shape() {
		t.Fatalf("hello: %+v", f)
	}

	c.send(wire.Frame{Type: wire.TInc, ID: 2, Wire: 1})
	if f := c.recv(); f.Type != wire.TValue || f.ID != 2 || f.Value != 0 {
		t.Fatalf("first inc: %+v", f)
	}

	c.send(wire.Frame{Type: wire.TIncBatch, ID: 3, Wire: 0, K: 5})
	f := c.recv()
	if f.Type != wire.TRanges || f.ID != 3 {
		t.Fatalf("incbatch: %+v", f)
	}
	var got int64
	for _, r := range f.Rs {
		got += r.Count
	}
	if got != 5 {
		t.Fatalf("incbatch returned %d values, want 5: %+v", got, f.Rs)
	}

	c.send(wire.Frame{Type: wire.TRead, ID: 4})
	if f := c.recv(); f.Type != wire.TValue || f.Value != 6 {
		t.Fatalf("read after 6 incs: %+v", f)
	}

	if snap := s.opt.Stats.Snapshot(); snap.SCOps != 6 {
		t.Fatalf("stats scOps = %d, want 6 (one inc and a batch of 5)", snap.SCOps)
	}
}

// TestOpCountersCountIncrements: the SC and LIN op counters count
// increments, not requests, so a combined TIncBatch of k callers counts
// k and on a clean server the two counters sum to issued.
func TestOpCountersCountIncrements(t *testing.T) {
	s, _, addr := startServer(t, 4, Options{Stats: NewStats(0)})
	c := dialT(t, addr)
	c.send(
		wire.Frame{Type: wire.TIncBatch, ID: 1, Wire: 0, K: 5},
		wire.Frame{Type: wire.TIncBatch, ID: 2, Wire: 1, K: 3, Mode: wire.ModeLIN},
		wire.Frame{Type: wire.TInc, ID: 3, Wire: 2},
		wire.Frame{Type: wire.TInc, ID: 4, Wire: 3, Mode: wire.ModeLIN},
	)
	for i := 0; i < 4; i++ {
		if f := c.recv(); f.Type == wire.TError {
			t.Fatalf("reply %d: %+v", i, f)
		}
	}
	snap := s.opt.Stats.Snapshot()
	if snap.SCOps != 6 || snap.LINOps != 4 {
		t.Errorf("counted %d SC and %d LIN increments, want 6 and 4", snap.SCOps, snap.LINOps)
	}
	if got := int64(snap.SCOps + snap.LINOps); got != s.Issued() {
		t.Errorf("sc + lin ops = %d, issued %d", got, s.Issued())
	}
}

// TestBadWire: out-of-range wire ids come back as typed errors, the
// connection survives, and nothing is issued.
func TestBadWire(t *testing.T) {
	s, _, addr := startServer(t, 4, Options{})
	c := dialT(t, addr)

	for _, w := range []int64{-1, 4, 1000} {
		c.send(wire.Frame{Type: wire.TInc, ID: 9, Wire: w})
		f := c.recv()
		if f.Type != wire.TError || !errors.Is(f.Code.Err(), wire.ErrBadWire) {
			t.Fatalf("wire %d: %+v", w, f)
		}
	}
	if s.Issued() != 0 {
		t.Fatalf("bad wires issued %d values", s.Issued())
	}
	// The connection still works.
	c.send(wire.Frame{Type: wire.TInc, ID: 10, Wire: 0})
	if f := c.recv(); f.Type != wire.TValue || f.Value != 0 {
		t.Fatalf("inc after bad wires: %+v", f)
	}
}

// TestLINStepProperty: concurrent linearizable increments from many
// connections observe values in real-time order (the online monitor's
// non-linearizability count stays zero) and, with no SC traffic, the
// values are exactly 0..N-1.
func TestLINStepProperty(t *testing.T) {
	_, _, addr := startServer(t, 8, Options{})

	const clients, perClient = 8, 50
	type op struct {
		proc       int
		value      int64
		start, end int64
	}
	ops := make(chan op, clients*perClient)
	var wg sync.WaitGroup
	base := time.Now()
	for p := 0; p < clients; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			var buf []byte
			for i := 0; i < perClient; i++ {
				f := wire.Frame{Type: wire.TInc, ID: uint64(i), Wire: int64(p), Mode: wire.ModeLIN}
				buf, _ = wire.AppendFrame(buf[:0], &f)
				start := time.Since(base).Nanoseconds()
				if _, err := nc.Write(buf); err != nil {
					t.Error(err)
					return
				}
				rf, err := wire.ReadFrame(br)
				if err != nil {
					t.Error(err)
					return
				}
				end := time.Since(base).Nanoseconds()
				if rf.Type != wire.TValue {
					t.Errorf("client %d: %+v", p, rf)
					return
				}
				ops <- op{proc: p, value: rf.Value, start: start, end: end}
			}
		}(p)
	}
	wg.Wait()
	close(ops)

	// Feed the monitor in end order.
	var all []op
	for o := range ops {
		all = append(all, o)
	}
	if len(all) != clients*perClient {
		t.Fatalf("completed %d/%d ops", len(all), clients*perClient)
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[j].end < all[i].end {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	mon := consistency.NewOnline()
	seen := make(map[int64]bool, len(all))
	for _, o := range all {
		mon.Report(o.proc, o.value, o.start, o.end)
		if seen[o.value] {
			t.Fatalf("value %d observed twice", o.value)
		}
		seen[o.value] = true
	}
	if mon.NonLin != 0 {
		t.Fatalf("linearizable mode produced %d/%d non-linearizable ops", mon.NonLin, mon.Total)
	}
	for v := int64(0); v < int64(len(all)); v++ {
		if !seen[v] {
			t.Fatalf("all-LIN run left a gap at value %d", v)
		}
	}
}

// TestLINWaitsOutParkedSweep: a LIN increment is not answered while an
// earlier sweep's token is still inside the network. An SC sweep is
// parked at its second balancer; LIN op A, sent while it is parked, must
// not return until the sweep is released, and LIN op B, sent after A
// returned, must get a larger value. A traversal run beside the parked
// one would answer A at once, and could hand it a value above the parked
// token's and above B's.
func TestLINWaitsOutParkedSweep(t *testing.T) {
	rt := runtime.MustCompile(construct.MustBitonic(8))
	parked, release := make(chan struct{}), make(chan struct{})
	var visits atomic.Int32
	rt.SetFaultHook(func(context.Context, int) {
		if visits.Add(1) == 2 {
			close(parked)
			<-release
		}
	})
	s := New(rt, Options{})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	var unpark sync.Once
	free := func() { unpark.Do(func() { close(release) }) }
	t.Cleanup(free) // runs before Close, so a failed test cannot leave the sweeper parked
	sc, lin := dialT(t, addr.String()), dialT(t, addr.String())

	sc.send(wire.Frame{Type: wire.TInc, ID: 1, Wire: 0})
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the SC sweep never reached its second balancer")
	}
	lin.send(wire.Frame{Type: wire.TInc, ID: 2, Wire: 3, Mode: wire.ModeLIN})
	_ = lin.nc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if f, err := wire.ReadFrame(lin.br); err == nil {
		t.Fatalf("LIN op answered %+v while an earlier sweep was still in the network", f)
	}
	_ = lin.nc.SetReadDeadline(time.Time{})
	free()

	vals := []int64{sc.recv().Value}
	a := lin.recv()
	lin.send(wire.Frame{Type: wire.TInc, ID: 3, Wire: 5, Mode: wire.ModeLIN})
	b := lin.recv()
	if a.Type != wire.TValue || b.Type != wire.TValue {
		t.Fatalf("LIN replies %+v, %+v", a, b)
	}
	if b.Value <= a.Value {
		t.Fatalf("LIN op B got %d after LIN op A returned %d", b.Value, a.Value)
	}
	vals = append(vals, a.Value, b.Value)
	if err := runtime.Verify(vals); err != nil {
		t.Fatalf("values %v: %v", vals, err)
	}
}

// recordingBackend is a cursor backend that logs every call's wire and k,
// so a test can count traversals. Only a sweeper on the test goroutine
// calls it.
type recordingBackend struct {
	shape network.Shape
	next  int64
	calls [][2]int
}

func (b *recordingBackend) Shape() network.Shape { return b.shape }

func (b *recordingBackend) Mint(dst []runtime.Range, w, k int) ([]runtime.Range, error) {
	b.calls = append(b.calls, [2]int{w, k})
	first := b.next
	b.next += int64(k)
	return append(dst, runtime.Range{First: first, Stride: 1, Count: int64(k)}), nil
}

// TestOneTraversalPerSweep pins the sweep contract: a sweep makes exactly
// one backend call, on its first request's wire, for the sum of its
// requests' k, and deals the values out in arrival order. On a counting
// network the same sweep hands out exactly the next seven values,
// whichever wires its requests named.
func TestOneTraversalPerSweep(t *testing.T) {
	pending := []struct {
		wire  int
		k     int64
		batch bool
	}{{2, 1, false}, {0, 3, true}, {3, 2, true}, {1, 1, true}}
	sweepOnce := func(be Backend) [][]int64 {
		t.Helper()
		s := &Server{shape: be.Shape(), opt: Options{}.withDefaults(), clk: clock.Or(nil)}
		reqs := make([]req, len(pending))
		conns := make([]*conn, len(pending))
		for i, p := range pending {
			conns[i] = &conn{s: s, out: make(chan outMsg, 1), dead: make(chan struct{})}
			reqs[i] = req{c: conns[i], id: uint64(i), wire: p.wire, k: p.k, batch: p.batch, enq: s.clk.Now()}
		}
		(&sweeper{s: s, be: be}).sweep(reqs)
		got := make([][]int64, len(conns))
		for i, c := range conns {
			var m outMsg
			select {
			case m = <-c.out:
			default:
				t.Fatalf("request %d got no reply", i)
			}
			switch {
			case m.f.ID != uint64(i):
				t.Fatalf("request %d answered with id %d", i, m.f.ID)
			case !pending[i].batch && m.f.Type == wire.TValue:
				got[i] = []int64{m.f.Value}
			case pending[i].batch && m.f.Type == wire.TRanges:
				for _, r := range m.f.Rs {
					for j := int64(0); j < r.Count; j++ {
						got[i] = append(got[i], r.First+j*r.Stride)
					}
				}
			default:
				t.Fatalf("request %d answered %+v", i, m.f)
			}
			if int64(len(got[i])) != pending[i].k {
				t.Fatalf("request %d got %d values, want %d", i, len(got[i]), pending[i].k)
			}
		}
		return got
	}

	rec := &recordingBackend{shape: network.Shape{Width: 4, Sinks: 4}}
	got := sweepOnce(rec)
	if want := [][2]int{{2, 7}}; !slices.Equal(rec.calls, want) {
		t.Fatalf("backend calls (wire, k) %v, want exactly one IncBatch(2, 7)", rec.calls)
	}
	want := [][]int64{{0}, {1, 2, 3}, {4, 5}, {6}}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("replies %v, want %v (arrival order)", got, want)
		}
	}

	var all []int64
	for _, vs := range sweepOnce(runtime.MustCompile(construct.MustBitonic(4))) {
		all = append(all, vs...)
	}
	if len(all) != 7 {
		t.Fatalf("network sweep handed out %v, want 7 values", all)
	}
	if err := runtime.Verify(all); err != nil {
		t.Fatalf("network sweep handed out %v: %v", all, err)
	}
}

// TestCoalescingReducesToggles: at 64 pipelined clients, folding SC
// increments into batched sweeps must cut balancer work at least 5x
// against naive per-request traversal (which costs depth toggles per op).
func TestCoalescingReducesToggles(t *testing.T) {
	spec := construct.MustBitonic(8)
	rt := runtime.MustCompile(spec)
	col := telemetry.NewCollectorFor(spec)
	rt.SetObserver(col)

	st := NewStats(0)
	s := New(rt, Options{Mailbox: 1 << 15, BatchLimit: 4096, Stats: st})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const clients, perClient = 64, 256
	var wg sync.WaitGroup
	ready := make(chan struct{})
	for p := 0; p < clients; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr.String())
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			<-ready
			// Blast the whole window, then collect.
			var buf []byte
			for i := 0; i < perClient; i++ {
				f := wire.Frame{Type: wire.TInc, ID: uint64(i), Wire: int64(p % 8)}
				buf, _ = wire.AppendFrame(buf, &f)
			}
			if _, err := nc.Write(buf); err != nil {
				t.Error(err)
				return
			}
			br := bufio.NewReader(nc)
			for i := 0; i < perClient; i++ {
				f, err := wire.ReadFrame(br)
				if err != nil {
					t.Error(err)
					return
				}
				if f.Type != wire.TValue {
					t.Errorf("client %d: %+v", p, f)
					return
				}
			}
		}(p)
	}
	close(ready)
	wg.Wait()

	const ops = clients * perClient
	if got := s.Issued(); got != ops {
		t.Fatalf("issued %d, want %d", got, ops)
	}
	toggles := col.Snapshot().TotalToggles()
	naive := uint64(ops * spec.Depth())
	if 5*toggles > naive {
		t.Fatalf("coalescing too weak: %d toggles for %d ops (naive %d, want ≥5x reduction; %.1f reqs/sweep)",
			toggles, ops, naive, st.Snapshot().CoalescingFactor())
	}
	if f := st.Snapshot().CoalescingFactor(); f < 2 {
		t.Fatalf("coalescing factor %.2f, expected real batching", f)
	}
}

// slowBackend stalls every sweep so requests pile up behind it.
type slowBackend struct {
	delay time.Duration
	mu    sync.Mutex
	next  int64
}

func (b *slowBackend) Shape() network.Shape {
	return network.Shape{Width: 2, Sinks: 2, Balancers: 1, Depth: 1}
}

func (b *slowBackend) Mint(dst []runtime.Range, w, k int) ([]runtime.Range, error) {
	time.Sleep(b.delay)
	b.mu.Lock()
	defer b.mu.Unlock()
	first := b.next
	b.next += int64(k)
	return append(dst, runtime.Range{First: first, Stride: 1, Count: int64(k)}), nil
}

// TestBackpressure: a single-slot mailbox in front of a slow backend
// sheds pipelined load with typed backpressure errors instead of
// queueing unboundedly.
func TestBackpressure(t *testing.T) {
	st := NewStats(0)
	s := New(&slowBackend{delay: 50 * time.Millisecond}, Options{Mailbox: 1, Stats: st})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := dialT(t, addr.String())
	const n = 32
	fs := make([]wire.Frame, n)
	for i := range fs {
		fs[i] = wire.Frame{Type: wire.TInc, ID: uint64(i), Wire: 0}
	}
	c.send(fs...)

	shed, served := 0, 0
	for i := 0; i < n; i++ {
		switch f := c.recv(); f.Type {
		case wire.TError:
			if !errors.Is(f.Code.Err(), wire.ErrBackpressure) {
				t.Fatalf("unexpected error: %+v", f)
			}
			shed++
		case wire.TValue:
			served++
		default:
			t.Fatalf("unexpected frame: %+v", f)
		}
	}
	if shed == 0 {
		t.Fatal("single-slot mailbox shed nothing under a 32-deep pipeline")
	}
	if served == 0 {
		t.Fatal("server served nothing")
	}
	if got := st.Snapshot().Backpressure; got != uint64(shed) {
		t.Fatalf("backpressure counter %d, client saw %d", got, shed)
	}
}

// TestOpTimeout: a request stuck in the mailbox behind a slow sweep
// expires with the shared timeout sentinel.
func TestOpTimeout(t *testing.T) {
	s := New(&slowBackend{delay: 150 * time.Millisecond}, Options{
		Mailbox:   16,
		OpTimeout: 20 * time.Millisecond,
		Stats:     NewStats(0),
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := dialT(t, addr.String())
	// First request occupies the combiner for 150ms.
	c.send(wire.Frame{Type: wire.TInc, ID: 1, Wire: 0})
	time.Sleep(30 * time.Millisecond)
	// This one waits in the mailbox past its deadline.
	c.send(wire.Frame{Type: wire.TInc, ID: 2, Wire: 0})

	got := map[uint64]wire.Frame{}
	for i := 0; i < 2; i++ {
		f := c.recv()
		got[f.ID] = f
	}
	if f := got[1]; f.Type != wire.TValue {
		t.Fatalf("first request: %+v", f)
	}
	f := got[2]
	if f.Type != wire.TError || !errors.Is(f.Code.Err(), fault.ErrTimeout) {
		t.Fatalf("stale request: %+v", f)
	}
}

// TestGracefulDrain: responses already queued when Close begins are
// flushed, not dropped.
func TestGracefulDrain(t *testing.T) {
	s, _, addr := startServer(t, 4, Options{})
	c := dialT(t, addr)

	const n = 100
	fs := make([]wire.Frame, n)
	for i := range fs {
		fs[i] = wire.Frame{Type: wire.TInc, ID: uint64(i), Wire: int64(i % 4)}
	}
	c.send(fs...)
	// Wait until the server has processed everything, then close without
	// reading a single response.
	deadline := time.Now().Add(5 * time.Second)
	for s.Issued() < n {
		if time.Now().After(deadline) {
			t.Fatalf("server issued %d/%d", s.Issued(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seen := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		f := c.recv()
		if f.Type != wire.TValue {
			t.Fatalf("drained response %d: %+v", i, f)
		}
		if seen[f.Value] {
			t.Fatalf("value %d delivered twice", f.Value)
		}
		seen[f.Value] = true
	}
	if _, err := wire.ReadFrame(c.br); err == nil {
		t.Fatal("connection still open after drain")
	}
}

// TestUDPEndpoint: fire-and-forget datagrams advance the counter without
// a response channel.
func TestUDPEndpoint(t *testing.T) {
	s, _, _ := startServer(t, 4, Options{Stats: NewStats(0)})
	uaddr, err := s.ListenPacket("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.Dial("udp", uaddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	const n = 50
	for i := 0; i < n; i++ {
		f := wire.Frame{Type: wire.TInc, ID: uint64(i), Wire: int64(i % 4)}
		b, _ := wire.EncodeFrame(&f)
		if _, err := pc.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	// LIN datagrams and junk are rejected, not served.
	lin := wire.Frame{Type: wire.TInc, ID: 99, Wire: 0, Mode: wire.ModeLIN}
	b, _ := wire.EncodeFrame(&lin)
	_, _ = pc.Write(b)
	_, _ = pc.Write([]byte("not a frame"))

	// The LIN and junk datagrams may land in a later read than the last
	// increment, so wait for their rejections too.
	deadline := time.Now().Add(5 * time.Second)
	for (s.Issued() < n || s.Stats().Snapshot().UDPRejected < 2) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Loopback UDP should not drop under this load, but at-most-once is
	// the contract: assert progress and the upper bound.
	got := s.Issued()
	if got == 0 || got > n {
		t.Fatalf("issued %d after %d datagrams", got, n)
	}
	if rej := s.Stats().Snapshot().UDPRejected; rej < 2 {
		t.Fatalf("udpRejected = %d, want ≥2 (LIN + junk)", rej)
	}
}

// scriptFaults drops, duplicates and delays frames on a fixed schedule.
type scriptFaults struct{}

func (scriptFaults) Frame(conn int, inbound bool, seq int) (f wire.FrameFault) {
	if inbound {
		f.Drop = seq%7 == 3
		f.Duplicate = seq%5 == 1
	} else {
		f.Drop = seq%11 == 4
		f.Delay = time.Duration(seq%3) * time.Millisecond
	}
	return f
}

// TestFrameFaults: under injected drops, duplicates and delays, the
// service never hands the same counter value to two responses — faults
// burn values (gaps) but cannot mint duplicates.
func TestFrameFaults(t *testing.T) {
	st := NewStats(0)
	s, _, addr := startServer(t, 4, Options{Stats: st, Faults: scriptFaults{}})
	c := dialT(t, addr)

	const n = 200
	fs := make([]wire.Frame, n)
	for i := range fs {
		fs[i] = wire.Frame{Type: wire.TInc, ID: uint64(i), Wire: int64(i % 4)}
	}
	c.send(fs...)

	// Collect until the stream goes quiet: with drops on both directions
	// the response count is unpredictable, the value set's uniqueness is
	// not.
	_ = c.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	seen := make(map[int64]int, n)
	for {
		f, err := wire.ReadFrame(c.br)
		if err != nil {
			break
		}
		if f.Type != wire.TValue {
			t.Fatalf("unexpected frame: %+v", f)
		}
		seen[f.Value]++
	}
	for v, k := range seen {
		if k > 1 {
			t.Fatalf("value %d delivered %d times under frame faults", v, k)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no responses survived the fault schedule")
	}
	snap := st.Snapshot()
	if snap.FaultDropped == 0 || snap.FaultDuplicated == 0 || snap.FaultDelayed == 0 {
		t.Fatalf("fault counters not all active: %+v", snap)
	}
	// Issued can exceed observed (dropped responses burn values) but a
	// duplicate-free count below issued is exactly the bounded-gap story.
	if int64(len(seen)) > s.Issued() {
		t.Fatalf("observed %d values but issued only %d", len(seen), s.Issued())
	}
	_ = c.nc.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsExposition: AppendMetrics writes well-formed Prometheus
// text with the countd_ namespace.
func TestMetricsExposition(t *testing.T) {
	srv, _, addr := startServer(t, 4, Options{Stats: NewStats(0)})
	c := dialT(t, addr)
	c.send(wire.Frame{Type: wire.TInc, ID: 1, Wire: 0})
	c.recv()

	var sb strings.Builder
	srv.Stats().AppendMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"countd_sc_ops_total 1",
		"countd_conns_active 1",
		"countd_latency_sc_seconds_count 1",
		"countd_sweeps_total 1",
		"countd_flush_total",
		"countd_bytes_out_total",
		"countd_latency_lin_seconds_bucket{le=\"+Inf\"} 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestListenAfterClose: Listen and ListenPacket on a closed server return
// fault.ErrClosed and leave no listener or socket behind.
func TestListenAfterClose(t *testing.T) {
	s := New(runtime.MustCompile(construct.MustBitonic(4)), Options{})
	_ = s.Close()
	if addr, err := s.Listen("127.0.0.1:0"); !errors.Is(err, fault.ErrClosed) {
		t.Fatalf("Listen after Close: %v, %v; want fault.ErrClosed", addr, err)
	}
	if addr, err := s.ListenPacket("127.0.0.1:0"); !errors.Is(err, fault.ErrClosed) {
		t.Fatalf("ListenPacket after Close: %v, %v; want fault.ErrClosed", addr, err)
	}
	if len(s.lns) != 0 || len(s.udps) != 0 {
		t.Fatalf("closed server registered %d listeners and %d sockets", len(s.lns), len(s.udps))
	}
}
