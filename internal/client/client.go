// Package client is the Go client for the networked counting service: a
// connection pool speaking the internal/wire protocol with pipelined,
// id-matched requests, automatic re-batching of concurrent increments,
// and retry with the shared fault.Backoff policy.
//
// The client presents the same Counter/CtxCounter/BatchCounter facade as
// the in-process implementations, so every existing harness — the
// workload driver, the consistency monitors, the simulation — runs
// unmodified against a remote network. Inc follows the msgnet
// convention: -1 on error, a value otherwise.
//
// # Re-batching
//
// Concurrent Inc calls do not each cross the network. They meet at a
// flat-combining point, one per mode, shared by callers on every input
// wire: a plain grouping rule under one lock. The caller that finds no
// group open opens one, and later callers join it until it holds
// BatchLimit. The opener sends it as one TIncBatch frame on its own wire
// and the pool's next connection once no frame of that mode is in
// flight (waiting until then on the in-flight group's done), and deals
// the returned ranges back out in arrival order. So each mode has at
// most one frame in flight, sent by no extra goroutine. An opener whose
// context ends before its turn drops its group unsent; the other
// members join a later one. Tokens' entry wires do not matter to the
// counting and step properties, and a caller's next increment waits for
// this one's value, so per-process order survives. LIN combines too:
// every op in a frame was invoked before it was sent and answers after
// its reply, so they all overlap, and an op invoked after a reply joins
// a later frame, which the server sweeps later.
// IncBatchCtx never re-batches and always enters on the caller's wire.
//
// # Group commit
//
// What no request pays alone is the write syscall. Every frame is
// appended to its connection's pending buffer; the caller that finds no
// writer active yields once, so the rest of a burst can append, then
// writes for everyone until nothing is left. A lone caller gets one Write
// and no added hold. Stats reports how many frames each write carried.
// Combined increments keep one frame per mode in flight, so group commit
// serves the pipelined requests, IncBatchCtx and Read, up to Window per
// connection. Each caller waits only for its own reply, under its own
// context.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/flightrec"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// Options tunes a Client; the zero value picks the defaults noted on
// each field.
type Options struct {
	// Conns is the connection pool size (default 1).
	Conns int
	// Window bounds the in-flight (unanswered) requests per connection
	// (default 64); acquiring a slot blocks.
	Window int
	// Mode is the consistency mode used by the Counter facade methods
	// (default ModeSC). The *Mode methods override it per call.
	Mode wire.Mode
	// BatchLimit caps how many increments one combined TIncBatch frame
	// carries (default 512).
	BatchLimit int
	// Retries is how many times a retryable failure (backpressure, mailbox
	// timeout, transport error) is re-attempted before giving up
	// (default 4).
	Retries int
	// Backoff paces the retries; nil picks the shared default policy
	// (1ms base, 100ms cap, equal jitter).
	Backoff *fault.Backoff
	// OpTimeout, when positive, bounds each attempt of a request. An
	// expired attempt counts as retryable — the abandoned request id can
	// no longer match a response, so a late answer burns its value (a
	// gap) rather than duplicating one. Essential when frame-level faults
	// can eat requests or responses.
	OpTimeout time.Duration
	// DialTimeout bounds each dial (default 5s).
	DialTimeout time.Duration
	// Clock times attempt deadlines, retry backoff and flight spans;
	// nil means the wall clock. The deterministic simulation harness
	// (internal/dst) injects its virtual clock here.
	Clock clock.Clock
	// Dialer, when non-nil, replaces net.DialTimeout("tcp", ...) — the
	// transport seam the simulation harness uses to splice in its
	// in-memory network. The timeout argument is advisory for dialers
	// whose connect cannot block (memnet's never does).
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Flight, when non-nil, records the client-side stage spans (combine,
	// RPC, complete) of sampled requests; merge them with the server's
	// spans via flightrec.WriteChrome for one end-to-end timeline.
	Flight *flightrec.Recorder
	// TraceSample, when positive, stamps one in every TraceSample
	// increments with a trace id the server propagates and records
	// against. Zero disables client-side sampling. For Inc calls the
	// sampled unit is the combined batch group — the thing that actually
	// crosses the wire.
	TraceSample int
	// TraceActor namespaces this client's trace ids (flightrec.Sampler);
	// give each client its own actor when merging multi-client traces.
	TraceActor uint64
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.BatchLimit <= 0 {
		o.BatchLimit = 512
	}
	if o.Retries <= 0 {
		o.Retries = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.Backoff == nil {
		o.Backoff = &fault.Backoff{Clock: o.Clock}
	}
	return o
}

// Client is a pooled connection to one counting service.
type Client struct {
	addr  string
	opt   Options
	clk   clock.Clock
	shape network.Shape

	idSeq atomic.Uint64
	rr    atomic.Uint64 // round-robin cursor over the pool
	stats counters

	mu     sync.Mutex
	pool   []*cconn // slots; nil or dead entries are re-dialed lazily
	closed bool

	batchers [2]batcher // flat-combining points, indexed by mode: SC, then LIN
	done     chan struct{}

	flight  *flightrec.Recorder // nil: tracing off
	sampler *flightrec.Sampler  // nil: never sample

	// refusalsReturn makes a cluster refusal (not_leader, no_range) end a
	// request at once: a Cluster's endpoint clients set it, so the
	// Cluster moves to the next endpoint instead of re-sending there.
	refusalsReturn bool
}

// ErrClosed reports an operation on a closed client.
var ErrClosed = errors.New("client: closed")

// Dial connects to a counting service, performs the THello handshake and
// caches the served network's shape.
func Dial(addr string, opt Options) (*Client, error) {
	c := NewPeer(addr, opt)
	// The handshake is bounded by DialTimeout and retried like any other
	// request: on a faulty transport the THello or its TShape answer can
	// be dropped, and an unbounded wait would hang Dial forever. A
	// re-sent hello is idempotent (an orphan TShape is discarded by id
	// matching).
	var last error
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		cc, err := c.dial()
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.pool[0] = cc
		c.mu.Unlock()
		hctx, cancel := c.clk.WithTimeout(context.Background(), c.opt.DialTimeout)
		f, err := c.roundTrip(hctx, cc, wire.Frame{Type: wire.THello})
		cancel()
		if err != nil {
			cc.kill(err)
			last = err
			if retryable(err) {
				continue
			}
			return nil, fmt.Errorf("client: handshake: %w", err)
		}
		if f.Type != wire.TShape {
			cc.kill(nil)
			return nil, fmt.Errorf("client: handshake answered with %v", f.Type)
		}
		c.shape = f.Shape
		last = nil
		break
	}
	if last != nil {
		return nil, fmt.Errorf("client: handshake: %w", last)
	}
	return c, nil
}

// NewPeer returns a client of addr that has not dialled: its first
// request dials, and it makes no THello handshake, so it learns no shape
// and its increments all enter on wire 0. A cluster node calls its peers
// through one, with Call.
func NewPeer(addr string, opt Options) *Client {
	c := &Client{
		addr: addr,
		opt:  opt.withDefaults(),
		clk:  clock.Or(opt.Clock),
		done: make(chan struct{}),
	}
	for i := range c.batchers {
		c.batchers[i].st.limit = c.opt.BatchLimit
	}
	c.flight = c.opt.Flight
	if c.opt.TraceSample > 0 {
		c.sampler = flightrec.NewSampler(c.opt.TraceSample, c.opt.TraceActor)
	}
	c.pool = make([]*cconn, c.opt.Conns)
	return c
}

// Call sends f and waits for its reply: one attempt on the pool's next
// connection, dialled if need be, with no retry, bounded by ctx. A TError
// reply comes back as its sentinel error. A caller whose request must not
// run twice (a cluster node's grant request) uses Call, not a retrying
// method.
func (c *Client) Call(ctx context.Context, f wire.Frame) (wire.Frame, error) {
	cc, err := c.conn()
	if err != nil {
		return wire.Frame{}, err
	}
	return c.roundTrip(ctx, cc, f)
}

// Shape returns the served network's topology, learned at handshake.
func (c *Client) Shape() network.Shape { return c.shape }

// Flight returns the client's flight recorder (nil unless Options.Flight
// was set).
func (c *Client) Flight() *flightrec.Recorder { return c.flight }

// Width returns the served network's input width.
func (c *Client) Width() int { return c.shape.Width }

// Close releases the pool. In-flight requests fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	pool := append([]*cconn(nil), c.pool...)
	c.mu.Unlock()
	close(c.done)
	for _, cc := range pool {
		if cc != nil {
			cc.kill(ErrClosed)
		}
	}
	return nil
}

// wireFor reduces a caller's wire id onto the served width, so harnesses
// with more workers than the network has wires run unmodified.
func (c *Client) wireFor(w int) int {
	width := c.shape.Width
	if width <= 0 {
		return 0
	}
	w %= width
	if w < 0 {
		w += width
	}
	return w
}

// Inc obtains the next counter value in the client's default mode,
// returning -1 on error (the msgnet convention) so it satisfies the
// Counter facade.
func (c *Client) Inc(w int) int64 {
	v, err := c.IncCtx(context.Background(), w)
	if err != nil {
		return -1
	}
	return v
}

// IncCtx obtains the next counter value in the client's default mode.
func (c *Client) IncCtx(ctx context.Context, w int) (int64, error) {
	return c.IncMode(ctx, w, c.opt.Mode)
}

// IncMode obtains the next counter value in an explicit consistency
// mode, through that mode's re-batching point.
func (c *Client) IncMode(ctx context.Context, w int, mode wire.Mode) (int64, error) {
	return c.incBatched(ctx, c.wireFor(w), mode)
}

// IncBatch reserves k values from a wire in one request, satisfying the
// BatchCounter facade. Returns nil on error or k <= 0.
func (c *Client) IncBatch(w, k int) []runtime.Range {
	rs, err := c.IncBatchCtx(context.Background(), w, k, c.opt.Mode)
	if err != nil {
		return nil
	}
	return rs
}

// IncBatchCtx reserves k values from a wire in one request in an
// explicit mode.
func (c *Client) IncBatchCtx(ctx context.Context, w, k int, mode wire.Mode) ([]runtime.Range, error) {
	if k <= 0 {
		return nil, nil
	}
	req := wire.Frame{Type: wire.TIncBatch, Wire: int64(c.wireFor(w)), K: int64(k), Mode: mode}
	var t0 int64
	if id := c.sampler.Sample(); id != 0 {
		req.Trace = id
		t0 = c.clk.Now().UnixNano()
	}
	f, err := c.request(ctx, req)
	if req.Trace != 0 {
		var m uint8
		if mode == wire.ModeLIN {
			m = 1
		}
		c.flight.RecordNS(req.Trace, flightrec.StageClientRPC, m, req.Wire, t0, c.clk.Now().UnixNano())
	}
	if err != nil {
		return nil, err
	}
	if f.Type != wire.TRanges {
		return nil, fmt.Errorf("client: incbatch answered with %v", f.Type)
	}
	rs := make([]runtime.Range, len(f.Rs))
	for i, r := range f.Rs {
		rs[i] = runtime.Range{First: r.First, Stride: r.Stride, Count: r.Count}
	}
	return rs, nil
}

// Read returns how many values the server has handed out.
func (c *Client) Read(ctx context.Context) (int64, error) {
	f, err := c.request(ctx, wire.Frame{Type: wire.TRead})
	if err != nil {
		return 0, err
	}
	if f.Type != wire.TValue {
		return 0, fmt.Errorf("client: read answered with %v", f.Type)
	}
	return f.Value, nil
}

// Stats is a point-in-time view of the client's transport counters,
// summed over every connection the pool has held.
type Stats struct {
	Frames   uint64 // request frames handed to a connection write
	Writes   uint64 // Write calls that carried them; Frames/Writes is the group-commit factor
	Retries  uint64 // attempts re-issued after a retryable failure
	Refusals uint64 // requests the server answered with an error frame
}

// counters backs Stats. Frames and Writes move once per write, not once
// per request, so the per-op path shares no cache line through them.
type counters struct {
	frames, writes, retries, refusals atomic.Uint64
}

// Stats reports the transport counters. Always on: the counters cost two
// atomic adds per write and nothing per request.
func (c *Client) Stats() Stats {
	return Stats{
		Frames:   c.stats.frames.Load(),
		Writes:   c.stats.writes.Load(),
		Retries:  c.stats.retries.Load(),
		Refusals: c.stats.refusals.Load(),
	}
}

// retryable reports whether a failed attempt may be re-issued: shed or
// expired requests never executed, and transport errors re-issue at the
// cost of a possible burned value (a gap, never a duplicate — the old
// request id can no longer match a response). Cluster refusals
// (mid-election leaderlessness, a node briefly out of ranges) are
// transient by construction and re-issue the same way, except on a
// Cluster's endpoint clients (refusalsReturn).
func retryable(err error) bool {
	return errors.Is(err, wire.ErrBackpressure) ||
		errors.Is(err, fault.ErrTimeout) ||
		refusal(err) ||
		errors.Is(err, errTransport)
}

// refusal reports whether err is a cluster node's refusal to serve.
func refusal(err error) bool {
	return errors.Is(err, wire.ErrNotLeader) || errors.Is(err, wire.ErrNoRange)
}

var errTransport = errors.New("client: connection failed")

// request sends one frame and waits for its response, retrying
// retryable failures with backoff on a (possibly fresh) connection. Once
// the caller's own ctx has ended it returns ctx's error and sends
// nothing more: a retry would mint a value for a caller that has gone.
func (c *Client) request(ctx context.Context, f wire.Frame) (wire.Frame, error) {
	var last error
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return wire.Frame{}, fault.FromContext(err)
		}
		if attempt > 0 {
			if err := c.opt.Backoff.Sleep(ctx, attempt-1); err != nil {
				return wire.Frame{}, err
			}
			c.stats.retries.Add(1)
		}
		cc, err := c.conn()
		if err != nil {
			last = err
			if errors.Is(err, ErrClosed) {
				return wire.Frame{}, err
			}
			continue
		}
		attemptCtx, cancel := ctx, context.CancelFunc(nil)
		if c.opt.OpTimeout > 0 {
			attemptCtx, cancel = c.clk.WithTimeout(ctx, c.opt.OpTimeout)
		}
		rf, err := c.roundTrip(attemptCtx, cc, f)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return rf, nil
		}
		last = err
		if !retryable(err) || c.refusalsReturn && refusal(err) {
			return wire.Frame{}, err
		}
	}
	return wire.Frame{}, fmt.Errorf("client: gave up after %d attempts: %w", c.opt.Retries+1, last)
}

// roundTrip issues f on cc and waits for the matching response; TError
// responses come back as their sentinel errors.
func (c *Client) roundTrip(ctx context.Context, cc *cconn, f wire.Frame) (wire.Frame, error) {
	f.ID = c.idSeq.Add(1)
	rf, err := cc.do(ctx, &f)
	if err != nil {
		return wire.Frame{}, err
	}
	if rf.Type == wire.TError {
		c.stats.refusals.Add(1)
		return wire.Frame{}, rf.Code.Err()
	}
	return rf, nil
}

// conn returns a live pooled connection, re-dialing a dead slot lazily.
func (c *Client) conn() (*cconn, error) {
	slot := int(c.rr.Add(1)) % c.opt.Conns
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	cc := c.pool[slot]
	if cc != nil && !cc.isDead() {
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	// Dial outside the lock; racing dials for the same slot are harmless
	// (the loser is used once and garbage-collected when it dies).
	fresh, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errTransport, err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		fresh.kill(ErrClosed)
		return nil, ErrClosed
	}
	if cur := c.pool[slot]; cur == nil || cur.isDead() {
		c.pool[slot] = fresh
	}
	c.mu.Unlock()
	return fresh, nil
}

func (c *Client) dial() (*cconn, error) {
	dial := c.opt.Dialer
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nc, err := dial(c.addr, c.opt.DialTimeout)
	if err != nil {
		return nil, err
	}
	cc := &cconn{
		nc:      nc,
		stats:   &c.stats,
		window:  make(chan struct{}, c.opt.Window),
		pending: make(map[uint64]chan wire.Frame),
		dead:    make(chan struct{}),
	}
	go cc.readLoop()
	return cc, nil
}

// cconn is one pooled connection: pipelined, group-committed writes and a
// reader goroutine matching responses to waiters by request id.
type cconn struct {
	nc    net.Conn
	stats *counters

	// The group-commit state. Callers append encoded frames to wpend; the
	// one that finds writing false becomes the writer (commit) and owns
	// nc.Write until wpend is empty. wspare is the buffer the writer is not
	// currently writing from, so a burst never allocates.
	wmu     sync.Mutex
	wpend   []byte
	wframes uint64 // frames encoded in wpend
	wspare  []byte
	writing bool

	mu      sync.Mutex
	pending map[uint64]chan wire.Frame

	// window is the in-flight semaphore: channel occupancy = requests in
	// flight; capacity is Options.Window.
	window chan struct{}

	dead    chan struct{}
	die     sync.Once
	lastErr error
}

// respChPool recycles the request path's one-shot response channels; one
// ever abandoned (ctx expiry) or closed (kill) is never re-pooled.
var respChPool = sync.Pool{New: func() any { return make(chan wire.Frame, 1) }}

func (cc *cconn) isDead() bool {
	select {
	case <-cc.dead:
		return true
	default:
		return false
	}
}

// kill tears the connection down and fails every waiter. dead closes
// before the sweep and do registers under mu with a dead check, so every
// registered waiter is swept: a caller whose frame sits in a buffer some
// other goroutine failed to write is never left waiting.
func (cc *cconn) kill(err error) {
	cc.die.Do(func() {
		cc.lastErr = err
		close(cc.dead)
		_ = cc.nc.Close()
		cc.mu.Lock()
		for id, ch := range cc.pending {
			delete(cc.pending, id)
			close(ch)
		}
		cc.mu.Unlock()
	})
}

// do sends one frame and waits for its id-matched response.
func (cc *cconn) do(ctx context.Context, f *wire.Frame) (wire.Frame, error) {
	// Acquire an in-flight slot.
	select {
	case cc.window <- struct{}{}:
	case <-cc.dead:
		return wire.Frame{}, errTransport
	case <-ctx.Done():
		return wire.Frame{}, fault.FromContext(ctx.Err())
	}
	release := func() { <-cc.window }

	ch := respChPool.Get().(chan wire.Frame)
	cc.mu.Lock()
	if cc.isDead() {
		cc.mu.Unlock()
		respChPool.Put(ch)
		release()
		return wire.Frame{}, errTransport
	}
	cc.pending[f.ID] = ch
	cc.mu.Unlock()
	forget := func() {
		cc.mu.Lock()
		delete(cc.pending, f.ID)
		cc.mu.Unlock()
	}

	cc.wmu.Lock()
	var err error
	cc.wpend, err = wire.AppendFrame(cc.wpend, f)
	if err != nil {
		// AppendFrame left wpend as it was: nothing of f is on its way.
		cc.wmu.Unlock()
		forget()
		release()
		return wire.Frame{}, fmt.Errorf("client: encode %v: %w", f.Type, err)
	}
	cc.wframes++
	lead := !cc.writing
	cc.writing = true
	cc.wmu.Unlock()
	if lead {
		cc.commit()
	}

	select {
	case rf, ok := <-ch:
		release()
		if !ok {
			// kill closed the channel; it must not be re-pooled.
			return wire.Frame{}, errTransport
		}
		respChPool.Put(ch)
		return rf, nil
	case <-ctx.Done():
		// The channel stays out of the pool: the reader may still deliver
		// the orphaned response into it. The frame, if still pending, is
		// written anyway; its answer finds no waiter and is discarded.
		forget()
		release()
		return wire.Frame{}, fault.FromContext(ctx.Err())
	}
}

// commit is the group-commit writer: one Write per accumulated buffer
// until none is left. The yield makes a burst coalesce: on one P a
// loopback write never parks, so without it every caller would write
// alone. A failed write kills the connection, failing every waiter with
// the retryable errTransport.
func (cc *cconn) commit() {
	stdruntime.Gosched()
	cc.wmu.Lock()
	for len(cc.wpend) > 0 {
		buf, n := cc.wpend, cc.wframes
		cc.wpend, cc.wframes = cc.wspare[:0], 0
		cc.wmu.Unlock()
		_, err := cc.nc.Write(buf)
		cc.stats.frames.Add(n)
		cc.stats.writes.Add(1)
		if err != nil {
			// writing stays set: a dead connection admits no new waiter,
			// and those already appended were just failed by kill.
			cc.kill(err)
			return
		}
		cc.wmu.Lock()
		cc.wspare = buf
	}
	cc.writing = false
	cc.wmu.Unlock()
}

// readLoop delivers responses to waiters. One with no waiter (a
// duplicate, or a request abandoned on ctx expiry) is discarded, which
// keeps duplicated frames from duplicating values. The frame and scratch
// buffer are recycled, so only a slice payload allocates (detached below).
func (cc *cconn) readLoop() {
	br := newReader(cc.nc)
	var f wire.Frame
	var scratch []byte
	for {
		if err := wire.ReadFrameInto(br, &f, &scratch); err != nil {
			cc.kill(err)
			return
		}
		cc.mu.Lock()
		ch := cc.pending[f.ID]
		delete(cc.pending, f.ID)
		cc.mu.Unlock()
		if ch == nil {
			continue
		}
		rf := f
		// Detach slice payloads from the recycled frame: the waiter keeps
		// the response after this loop has moved on to the next frame.
		if len(f.Rs) > 0 {
			rf.Rs = append([]wire.Range(nil), f.Rs...)
		}
		if len(f.Data) > 0 {
			rf.Data = append([]byte(nil), f.Data...)
		}
		ch <- rf
	}
}

func newReader(nc net.Conn) *bufio.Reader { return bufio.NewReaderSize(nc, 32<<10) }
