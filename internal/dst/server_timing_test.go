package dst

// The wall-clock-sensitive server tests, converted to the simulated
// clock: slow-consumer eviction (a reader that stops consuming must get
// its connection dropped without stalling anyone else) and the writer's
// flush rule (a reply goes out as soon as the writer's queue drains, even
// while a request on the same connection is still in flight). On the
// wall clock these depended on scheduler luck — polling loops with
// generous deadlines, timing asserted only as "not absurdly late". Here
// the timing assertions are exact in simulated nanoseconds.

import (
	"bufio"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/construct"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/wire"
)

// driveWhile runs the scheduler until stop() reports true, failing the
// test on deadlock or runaway instead of hanging.
func driveWhile(t *testing.T, w *World, stop func() bool) {
	t.Helper()
	var out Outcome
	(&sim{w: w, out: &out, maxSteps: maxSteps}).drive(stop, 40,
		func() string { return "simulation deadlocked" }, "runaway simulation: exceeded %d steps")
	if out.Failed() {
		t.Fatal(out.Violations[0])
	}
}

// drainServer closes the server and steps the world until both the
// close completes and the event/timer queues are empty.
func drainServer(t *testing.T, w *World, srv *server.Server) {
	t.Helper()
	var out Outcome
	(&sim{w: w, out: &out, maxSteps: maxSteps}).drain(func() { _ = srv.Close() }, "server Close")
	if out.Failed() {
		t.Fatal(out.Violations[0])
	}
}

// compileBitonic is the shared test backend constructor.
func compileBitonic(t *testing.T, width int) *runtime.Network {
	t.Helper()
	spec, _, err := construct.Bitonic(width)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := runtime.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inner
}

// TestSlowConsumerEvictionSimClock: a client that floods requests and
// never reads a response fills its bounded receive window, which parks
// the server's per-connection writer, which fills the out queue, which
// evicts the connection — while a well-behaved connection on the same
// shards keeps strict request/response service the whole time. The
// wall-clock original polled a stats counter under a 5-second deadline;
// here eviction is reached purely through scheduler steps.
func TestSlowConsumerEvictionSimClock(t *testing.T) {
	w := NewWorld(2024, 5*time.Microsecond, 25*time.Microsecond, nil)
	// A tiny receive window: ~20 response frames fit, the flood sends 256.
	w.SetRecvWindow(256)
	st := server.NewStats(0)
	srv := server.New(compileBitonic(t, 4), server.Options{
		OutQueue: 4,
		Stats:    st,
		Clock:    w.Clk,
	})
	ln := w.Listen("sim")
	go srv.Serve(ln)

	var done atomic.Bool
	var liveOK atomic.Int64
	var workerErr atomic.Value
	fail := func(format string, args ...any) {
		workerErr.Store(fmt.Sprintf(format, args...))
	}
	go func() {
		defer done.Store(true)
		w.Clk.Sleep(100 * time.Microsecond)
		stuck, err := w.Dialer(0)("sim", 0)
		if err != nil {
			fail("stuck dial: %v", err)
			return
		}
		var buf []byte
		for i := 0; i < 256; i++ {
			f := wire.Frame{Type: wire.TInc, ID: uint64(i + 1), Wire: int64(i % 4)}
			if buf, err = wire.AppendFrame(buf, &f); err != nil {
				fail("append: %v", err)
				return
			}
		}
		if _, err := stuck.Write(buf); err != nil {
			fail("stuck write: %v", err)
			return
		}
		// Never read from stuck. Meanwhile strict request/response on a
		// second connection must keep working during the eviction.
		live, err := w.Dialer(1)("sim", 0)
		if err != nil {
			fail("live dial: %v", err)
			return
		}
		br := bufio.NewReader(live)
		var wbuf []byte
		for i := 0; i < 50; i++ {
			id := uint64(1000 + i)
			f := wire.Frame{Type: wire.TInc, ID: id, Wire: int64(i % 4)}
			if wbuf, err = wire.AppendFrame(wbuf[:0], &f); err != nil {
				fail("append: %v", err)
				return
			}
			if _, err := live.Write(wbuf); err != nil {
				fail("live write %d: %v", i, err)
				return
			}
			rf, err := wire.ReadFrame(br)
			if err != nil {
				fail("live read %d: %v", i, err)
				return
			}
			if rf.Type != wire.TValue || rf.ID != id {
				fail("live op %d answered %+v", i, rf)
				return
			}
			liveOK.Add(1)
		}
		_ = live.Close()
		_ = stuck.Close()
	}()

	driveWhile(t, w, func() bool { return done.Load() && st.Snapshot().Evictions > 0 })
	drainServer(t, w, srv)

	if msg := workerErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if got := st.Snapshot().Evictions; got == 0 {
		t.Fatal("slow consumer was never evicted")
	}
	if got := liveOK.Load(); got != 50 {
		t.Fatalf("live connection completed %d/50 ops during the eviction", got)
	}
	if n := w.Clk.Sleepers(); n != 0 {
		t.Errorf("%d goroutines left parked on the sim clock", n)
	}
}

// stallBackend delays wire-0 increments by a fixed simulated duration —
// how the flush test keeps one request in flight while another's
// response sits in the write buffer.
type stallBackend struct {
	inner *runtime.Network
	clk   *clock.Sim
	delay time.Duration
}

func (b *stallBackend) Mint(dst []runtime.Range, w, k int) ([]runtime.Range, error) {
	if w == 0 {
		b.clk.Sleep(b.delay)
	}
	return b.inner.Mint(dst, w, k)
}

func (b *stallBackend) Shape() network.Shape { return b.inner.Shape() }

// TestPipelinedReplyNotHeldSimClock pins the writer's flush rule: it
// flushes whenever its queue drains and never holds a reply back to wait
// for companions. Two pipelined requests are swept apart; the second
// stalls in the backend, and the first one's reply must reach the client
// while the stalled request is still in flight — within transport
// jitter of the write, not after any hold. The stalled reply then
// arrives after its backend stall plus jitter only.
func TestPipelinedReplyNotHeldSimClock(t *testing.T) {
	const (
		fastBound = 100 * time.Microsecond
		stall     = 20 * time.Millisecond
	)
	w := NewWorld(3030, 5*time.Microsecond, 25*time.Microsecond, nil)
	be := &stallBackend{inner: compileBitonic(t, 2), clk: w.Clk, delay: stall}
	// BatchLimit 1 sweeps the two ops apart: a sweep makes one backend
	// call on its first request's wire, so a shared sweep would enter on
	// wire 1 and never stall.
	srv := server.New(be, server.Options{
		Clock:      w.Clk,
		BatchLimit: 1,
	})
	ln := w.Listen("sim")
	go srv.Serve(ln)

	type timing struct {
		sent           time.Duration
		fastAt, slowAt time.Duration
		fastID, slowID uint64
		err            string
	}
	var tm timing
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		w.Clk.Sleep(100 * time.Microsecond)
		nc, err := w.Dialer(0)("sim", 0)
		if err != nil {
			tm.err = fmt.Sprintf("dial: %v", err)
			return
		}
		defer nc.Close()
		var buf []byte
		// One pipelined write, swept one op at a time: the fast op goes
		// first, and the slow op (wire 0, stalls 20ms in the backend) is
		// still in flight while the fast op's reply is gathered.
		for _, f := range []wire.Frame{
			{Type: wire.TInc, ID: 2, Wire: 1},
			{Type: wire.TInc, ID: 1, Wire: 0},
		} {
			f := f
			if buf, err = wire.AppendFrame(buf, &f); err != nil {
				tm.err = fmt.Sprintf("append: %v", err)
				return
			}
		}
		tm.sent = w.Clk.Since(clock.SimEpoch)
		if _, err := nc.Write(buf); err != nil {
			tm.err = fmt.Sprintf("write: %v", err)
			return
		}
		br := bufio.NewReader(nc)
		first, err := wire.ReadFrame(br)
		if err != nil {
			tm.err = fmt.Sprintf("read 1: %v", err)
			return
		}
		tm.fastAt, tm.fastID = w.Clk.Since(clock.SimEpoch), first.ID
		second, err := wire.ReadFrame(br)
		if err != nil {
			tm.err = fmt.Sprintf("read 2: %v", err)
			return
		}
		tm.slowAt, tm.slowID = w.Clk.Since(clock.SimEpoch), second.ID
	}()

	driveWhile(t, w, done.Load)
	drainServer(t, w, srv)

	if tm.err != "" {
		t.Fatal(tm.err)
	}
	if tm.fastID != 2 || tm.slowID != 1 {
		t.Fatalf("response order: got ids %d then %d, want 2 (fast) then 1 (stalled)", tm.fastID, tm.slowID)
	}
	// The fast reply went out as soon as the writer's queue drained: it
	// arrives while the stalled request is still in the backend, within
	// transport jitter of the write.
	fast := tm.fastAt - tm.sent
	if fast >= stall {
		t.Fatalf("fast reply arrived at %v, after the %v stall — it waited for its companion", fast, stall)
	}
	if fast > fastBound {
		t.Fatalf("fast reply arrived at %v; want within %v of the write — the writer held it", fast, fastBound)
	}
	slow := tm.slowAt - tm.sent
	if slow < stall {
		t.Fatalf("stalled response arrived at %v, before its %v backend stall", slow, stall)
	}
	if slow > stall+time.Millisecond {
		t.Fatalf("stalled response arrived at %v; want %v plus jitter only", slow, stall)
	}
	if n := w.Clk.Sleepers(); n != 0 {
		t.Errorf("%d goroutines left parked on the sim clock", n)
	}
}
