package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/wire"
)

// hookConn counts the Write calls on one client connection and lets a test
// hold or fail chosen ones: hook runs before the n-th Write (1-based, the
// hello is write 1) with the bytes about to go out; an error from it fails
// the Write without sending anything. closed unblocks a held hook on Close.
type hookConn struct {
	net.Conn
	writes atomic.Int64
	hook   func(n int64, b []byte) error
	closed chan struct{}
	once   sync.Once
}

func (h *hookConn) Write(b []byte) (int, error) {
	n := h.writes.Add(1)
	if h.hook != nil {
		if err := h.hook(n, b); err != nil {
			return 0, err
		}
	}
	return h.Conn.Write(b)
}

func (h *hookConn) Close() error {
	h.once.Do(func() { close(h.closed) })
	return h.Conn.Close()
}

// hookDialer dials real TCP and wraps each connection; hooks[i] is
// installed on the i-th connection dialed (none beyond the list).
type hookDialer struct {
	mu    sync.Mutex
	conns []*hookConn
	hooks []func(n int64, b []byte) error
}

func (d *hookDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	h := &hookConn{Conn: nc, closed: make(chan struct{})}
	if i := len(d.conns); i < len(d.hooks) {
		h.hook = d.hooks[i]
	}
	d.conns = append(d.conns, h)
	return h, nil
}

func (d *hookDialer) writes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int64
	for _, h := range d.conns {
		n += h.writes.Load()
	}
	return n
}

// atProcs runs f at GOMAXPROCS 1, 2 and 8: the group commit coalesces
// through a yield on one P and through real overlap on several, and both
// must be right.
func atProcs(t *testing.T, f func(t *testing.T, procs int)) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(procs))
			f(t, procs)
		})
	}
}

// countFrames decodes the request frames in one Write's bytes.
func countFrames(t *testing.T, b []byte) int {
	t.Helper()
	n := 0
	for len(b) > 0 {
		_, used, err := wire.DecodeFrame(b)
		if err != nil {
			t.Errorf("write carried a torn frame: %v", err)
			return n
		}
		b = b[used:]
		n++
	}
	return n
}

// pendingFrames reads how many frames sit appended but unwritten on the
// client's first connection.
func pendingFrames(c *Client) uint64 {
	c.mu.Lock()
	cc := c.pool[0]
	c.mu.Unlock()
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return cc.wframes
}

// waiters reads how many requests on the client's first connection still
// await a response.
func waiters(c *Client) int {
	c.mu.Lock()
	cc := c.pool[0]
	c.mu.Unlock()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.pending)
}

// waitFor polls cond until it holds; test goroutine only.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// inc1 reserves one LIN value in a frame of its own: IncBatchCtx never
// combines, so every call is exactly one request frame, which is what
// the group-commit tests count.
func inc1(ctx context.Context, c *Client, w int) (int64, error) {
	rs, err := c.IncBatchCtx(ctx, w, 1, wire.ModeLIN)
	if err != nil {
		return 0, err
	}
	return rs[0].First, nil
}

// TestGroupCommitCoalesces: 64 concurrent callers, one frame per op,
// share write syscalls — at one P at least four frames per write.
func TestGroupCommitCoalesces(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		st := server.NewStats(0)
		_, addr := startService(t, 8, server.Options{Stats: st})
		d := &hookDialer{}
		c := dialC(t, addr, Options{Dialer: d.dial})

		const callers, per = 64, 200
		const ops = callers * per
		vals := make([][]int64, callers)
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					v, err := inc1(context.Background(), c, g)
					if err != nil {
						t.Error(err)
						return
					}
					vals[g] = append(vals[g], v)
				}
			}(g)
		}
		wg.Wait()

		seen := make(map[int64]bool, ops)
		for _, vs := range vals {
			for _, v := range vs {
				if seen[v] {
					t.Fatalf("value %d observed twice", v)
				}
				seen[v] = true
			}
		}
		cs := c.Stats()
		// The hello is one more frame and one more write than the ops.
		if in := st.Snapshot().FramesIn; in != ops+1 || cs.Frames != ops+1 {
			t.Errorf("server read %d frames, client sent %d, want %d each (one per op)", in, cs.Frames, ops+1)
		}
		if w := d.writes(); uint64(w) != cs.Writes {
			t.Errorf("Stats.Writes = %d, the connection saw %d", cs.Writes, w)
		}
		if cs.Writes > cs.Frames {
			t.Errorf("%d writes for %d frames", cs.Writes, cs.Frames)
		}
		t.Logf("procs=%d: %d frames in %d writes", procs, cs.Frames, cs.Writes)
		if procs == 1 && cs.Writes-1 > ops/4 {
			t.Errorf("%d writes for %d ops at one P, want at most %d", cs.Writes-1, ops, ops/4)
		}
		if cs.Retries != 0 || cs.Refusals != 0 {
			t.Errorf("clean run counted %d retries, %d refusals", cs.Retries, cs.Refusals)
		}
	})
}

// TestGroupCommitSerialCaller: with nobody to share with, a request is
// written at once and alone — the commit adds no hold.
func TestGroupCommitSerialCaller(t *testing.T) {
	atProcs(t, func(t *testing.T, _ int) {
		_, addr := startService(t, 8, server.Options{})
		d := &hookDialer{}
		c := dialC(t, addr, Options{Dialer: d.dial})
		const ops = 200
		for i := 0; i < ops; i++ {
			if v, err := inc1(context.Background(), c, i); err != nil || v != int64(i) {
				t.Fatalf("op %d = %d, %v", i, v, err)
			}
		}
		if cs := c.Stats(); cs.Writes != ops+1 || cs.Frames != ops+1 || d.writes() != ops+1 {
			t.Fatalf("%d serial ops: %d frames in %d writes (connection saw %d), want %d each",
				ops, cs.Frames, cs.Writes, d.writes(), ops+1)
		}
	})
}

// TestGroupCommitWriteFailure: a Write that fails takes down every waiter
// whose frame was in its buffer; each retries once on a fresh connection
// and no value is observed twice.
func TestGroupCommitWriteFailure(t *testing.T) {
	atProcs(t, func(t *testing.T, _ int) {
		s, addr := startService(t, 8, server.Options{})
		const callers = 16
		// Write 2 (the first caller's frame) is held until every other
		// caller has appended, so write 3 carries all of them in one buffer.
		// It fails unsent, once the first caller's answer is in: that caller
		// is the one writing, and must not be failed along with the rest.
		var c *Client
		held, release := make(chan struct{}), make(chan struct{})
		var failed atomic.Int64
		d := &hookDialer{}
		d.hooks = []func(int64, []byte) error{func(n int64, b []byte) error {
			switch n {
			case 2:
				close(held)
				<-release
			case 3:
				failed.Store(int64(countFrames(t, b)))
				for end := time.Now().Add(10 * time.Second); waiters(c) != callers-1 && time.Now().Before(end); {
					time.Sleep(100 * time.Microsecond)
				}
				return errors.New("injected write failure")
			}
			return nil
		}}
		c = dialC(t, addr, Options{Dialer: d.dial})

		vals := make([]int64, callers)
		var wg sync.WaitGroup
		inc := func(g int) {
			defer wg.Done()
			v, err := inc1(context.Background(), c, g)
			if err != nil {
				t.Error(err)
			}
			vals[g] = v
		}
		wg.Add(callers)
		go inc(0)
		<-held
		for g := 1; g < callers; g++ {
			go inc(g)
		}
		waitFor(t, "every other caller's frame to be pending", func() bool { return pendingFrames(c) == callers-1 })
		close(release)
		wg.Wait()

		if failed.Load() != callers-1 {
			t.Fatalf("failed write carried %d frames, want %d", failed.Load(), callers-1)
		}
		seen := make(map[int64]bool, callers)
		for _, v := range vals {
			if seen[v] {
				t.Fatalf("value %d observed twice", v)
			}
			seen[v] = true
		}
		// The failed buffer never reached the server, so nothing burned.
		if s.Issued() != callers {
			t.Errorf("server issued %d values for %d ops", s.Issued(), callers)
		}
		if cs := c.Stats(); cs.Retries != callers-1 {
			t.Errorf("%d retries, want one per frame in the failed write (%d)", cs.Retries, callers-1)
		}
		d.mu.Lock()
		dials := len(d.conns)
		d.mu.Unlock()
		if dials < 2 {
			t.Errorf("retries reused the failed connection (%d dials)", dials)
		}
	})
}

// deadlineCtx is a context whose deadline passes when the test says so.
type deadlineCtx struct {
	context.Context
	done chan struct{}
}

func (c deadlineCtx) Done() <-chan struct{} { return c.done }

func (c deadlineCtx) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestGroupCommitExpiredWaiter: a caller whose deadline passes after its
// frame was appended but before it was written gets ErrTimeout; the frame
// is still sent and its late answer is discarded — a gap, never a
// duplicate.
func TestGroupCommitExpiredWaiter(t *testing.T) {
	atProcs(t, func(t *testing.T, _ int) {
		s, addr := startService(t, 8, server.Options{})
		release := make(chan struct{})
		held := make(chan struct{})
		d := &hookDialer{}
		d.hooks = []func(int64, []byte) error{func(n int64, _ []byte) error {
			if n == 2 {
				close(held)
				<-release
			}
			return nil
		}}
		c := dialC(t, addr, Options{Dialer: d.dial})

		first := make(chan int64, 1)
		go func() {
			v, err := inc1(context.Background(), c, 0)
			if err != nil {
				t.Error(err)
			}
			first <- v
		}()
		<-held
		ctx := deadlineCtx{Context: context.Background(), done: make(chan struct{})}
		expired := make(chan error, 1)
		go func() {
			_, err := inc1(ctx, c, 1)
			expired <- err
		}()
		waitFor(t, "the second caller's frame to be pending", func() bool { return pendingFrames(c) == 1 })
		close(ctx.done)
		if err := <-expired; !errors.Is(err, fault.ErrTimeout) {
			t.Fatalf("expired waiter returned %v, want ErrTimeout", err)
		}
		close(release)

		a := <-first
		b, err := inc1(context.Background(), c, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Three frames reached the server, two values were observed: the
		// abandoned one is a gap.
		if s.Issued() != 3 || a == b {
			t.Fatalf("issued %d, observed %d and %d; want 3 issued and two distinct values", s.Issued(), a, b)
		}
		if cs := c.Stats(); cs.Frames != 4 || cs.Retries != 0 {
			t.Fatalf("frames %d retries %d, want 4 (hello + 3) and 0", cs.Frames, cs.Retries)
		}
	})
}

// firedClock hands out timers that have already fired, so a backoff
// wait is over the moment it starts.
type firedClock struct{ clock.Clock }

type firedTimer chan time.Time

func (t firedTimer) C() <-chan time.Time    { return t }
func (firedTimer) Stop() bool               { return false }
func (firedTimer) Reset(time.Duration) bool { return false }
func (firedClock) NewTimer(time.Duration) clock.Timer {
	t := make(firedTimer, 1)
	t <- time.Time{}
	return t
}

// TestNoRetryAfterCallerDeadline: a caller whose deadline passes while its
// frame is unanswered gets ErrTimeout, and nothing is re-sent for it —
// even when the backoff timer has fired by the time the retry loop looks
// (a goroutine that waited to be scheduled), so the timer and the ended
// context are ready together.
func TestNoRetryAfterCallerDeadline(t *testing.T) {
	be := &slowBackend{hold: make(chan struct{})}
	s := server.New(be, server.Options{})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(be.hold)
	c := dialC(t, addr.String(), Options{Backoff: &fault.Backoff{Clock: firedClock{clock.Real()}}})

	for i := 0; i < 100; i++ {
		before := c.Stats()
		ctx := deadlineCtx{Context: context.Background(), done: make(chan struct{})}
		expired := make(chan error, 1)
		go func() {
			_, err := inc1(ctx, c, 0)
			expired <- err
		}()
		waitFor(t, "the frame to be written and unanswered", func() bool {
			return waiters(c) == 1 && pendingFrames(c) == 0
		})
		close(ctx.done)
		if err := <-expired; !errors.Is(err, fault.ErrTimeout) {
			t.Fatalf("iteration %d: expired caller returned %v, want ErrTimeout", i, err)
		}
		after := c.Stats()
		if frames, retries := after.Frames-before.Frames, after.Retries-before.Retries; frames != 1 || retries != 0 {
			t.Fatalf("iteration %d: %d frames and %d retries for an expired caller, want 1 and 0", i, frames, retries)
		}
	}
}

// TestGroupCommitCloseWithPending: Close while a write is stuck and frames
// are pending behind it fails every waiter, returns, and leaves neither
// the reader nor any caller behind.
func TestGroupCommitCloseWithPending(t *testing.T) {
	atProcs(t, func(t *testing.T, _ int) {
		_, addr := startService(t, 8, server.Options{})
		before := stdruntime.NumGoroutine()
		d := &hookDialer{}
		var stuck *hookConn
		d.hooks = []func(int64, []byte) error{func(n int64, _ []byte) error {
			if n == 2 {
				<-stuck.closed
				return net.ErrClosed
			}
			return nil
		}}
		c, err := Dial(addr, Options{Dialer: d.dial})
		if err != nil {
			t.Fatal(err)
		}
		stuck = d.conns[0]

		const callers = 8
		errs := make(chan error, callers)
		inc := func(g int) {
			_, err := inc1(context.Background(), c, g)
			errs <- err
		}
		go inc(0)
		waitFor(t, "the first caller's write to stick", func() bool { return stuck.writes.Load() == 2 })
		for g := 1; g < callers; g++ {
			go inc(g)
		}
		waitFor(t, "frames to queue behind the stuck write", func() bool { return pendingFrames(c) == callers-1 })
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < callers; g++ {
			if err := <-errs; !errors.Is(err, ErrClosed) {
				t.Errorf("caller returned %v, want ErrClosed", err)
			}
		}
		waitFor(t, "the client's goroutines to exit", func() bool { return stdruntime.NumGoroutine() <= before })
	})
}
