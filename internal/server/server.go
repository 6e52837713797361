// Package server exposes a compiled counting network as a network
// service: a TCP listener speaking the internal/wire protocol, with the
// consistency mode as a per-request knob.
//
// The serving layer is where the paper's contrast becomes a systems
// tradeoff. Sequentially consistent increments are cheap to serve: the
// server folds concurrent SC requests from many connections into batched
// IncBatch sweeps (one fetch-and-add per balancer for a whole batch)
// through sharded combining mailboxes, so under load the per-token cost
// of the network collapses. Linearizable increments pay what the
// condition demands: each one is serialized through the server's
// linearizing section and answered individually — no coalescing, a full
// round trip per value.
//
// # Sharded combining
//
// Connection readers do not touch the network. They validate each request
// and post it into the combining shard that owns the request's input
// wire; one combiner goroutine per shard drains its mailbox, groups
// pending increments by wire, executes one IncBatch per wire, and deals
// the resulting value ranges back to the requests in arrival order.
// Sharding by wire range lets SC coalescing scale with cores instead of
// serializing on one channel; a combiner whose own mailbox runs dry
// steals from its siblings' mailboxes before sweeping, so an idle shard
// rebalances load instead of sleeping next to a hot one. When a shard's
// mailbox is full the reader answers wire.ErrBackpressure immediately —
// load shedding at the door instead of unbounded queueing, using a
// pre-encoded error frame so shedding costs no allocation. Requests that
// sit in a mailbox longer than Options.OpTimeout fail with
// fault.ErrTimeout.
//
// # Flush batching
//
// Each connection's writer gathers every queued response into its
// buffered encoder and flushes adaptively (FlushPolicy): a connection
// seeing one response at a time flushes immediately (no added latency),
// while a pipelined connection's responses are held briefly — until the
// queue drains and stays dry, a byte threshold fills, or a deadline
// expires — so many response frames share one syscall.
//
// # Shutdown
//
// Close drains rather than drops: accepting stops, connection readers
// finish their current frame, the combiners sweep what their mailboxes
// still hold, writers flush every pending batched response, and only then
// are the connections closed. A client that disconnects mid-flight
// abandons its outstanding requests (their values are never delivered — a
// bounded gap among observed values, never a duplicate).
//
// # Fault injection
//
// Options.Faults installs a wire.FrameFaults at the transport seam: every
// frame read and written consults it, so a chaos.FaultPlan can drop,
// delay or duplicate traffic without touching the protocol or the kernel.
//
// # Tracing and the flight recorder
//
// Options.Flight plugs in a flightrec.Recorder: requests carrying a
// trace id in their wire header (and, with Options.TraceSample, a
// deterministic 1-in-N of the untraced ones) get stage spans recorded at
// every hop — mailbox wait, sweep grouping, traversal (LIN additionally
// records its linearizing-section wait), and the reply's flush hold —
// and replies echo the trace id so the client can merge its own spans
// onto the same timeline. The recorder doubles as a black box: shed,
// expired, evicted and failed requests are noted as anomalies. All
// stamps come from Options.Clock, so under internal/dst the spans are
// deterministic. With Flight nil and TraceSample zero the serving path
// pays only nil checks and stays allocation-free.
package server

import (
	"bufio"
	"encoding/json"
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
	"repro/internal/packetio"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// Backend is the counting object a Server serves: the compiled
// runtime.Network is the intended implementation, but anything with a
// batched increment and a shape works (tests substitute slow or scripted
// backends). IncBatch must be safe for concurrent use — combining shards
// sweep in parallel.
type Backend interface {
	Inc(wire int) int64
	IncBatch(wire, k int) []runtime.Range
	Shape() network.Shape
}

// FlushPolicy tunes the response writer's Nagle-style flush batching.
// The zero value picks the defaults noted on each field.
type FlushPolicy struct {
	// MaxDelay bounds how long a pipelined response may sit in the write
	// buffer waiting for companions before the writer forces a flush
	// (default 200µs). Negative disables the wait entirely: the writer
	// flushes every time its queue drains, the pre-batching behaviour.
	// The wait is adaptive — it is only taken on connections that have
	// demonstrated pipelining (more than one response per gather), so a
	// strict request-response client never pays it.
	MaxDelay time.Duration
	// MaxBytes flushes mid-gather once this many bytes are buffered
	// (default 16 KiB), bounding response latency under sustained bursts
	// and keeping writes under the kernel's coalescing sweet spot.
	MaxBytes int
}

func (p FlushPolicy) withDefaults() FlushPolicy {
	if p.MaxDelay == 0 {
		p.MaxDelay = 200 * time.Microsecond
	}
	if p.MaxBytes <= 0 {
		p.MaxBytes = 16 << 10
	}
	return p
}

// Options tunes a Server. The zero value picks the defaults noted on each
// field.
type Options struct {
	// Mailbox bounds the SC request queue between connection readers and
	// the combiners (default 4096), split evenly across shards. A full
	// shard answers requests with wire.ErrBackpressure instead of queueing
	// unboundedly.
	Mailbox int
	// Shards is the number of combining shards, each owning a contiguous
	// range of input wires with its own mailbox and combiner goroutine
	// (default min(GOMAXPROCS, 8), clamped to the network width).
	Shards int
	// BatchLimit is the most requests one combiner sweep folds together
	// (default 1024).
	BatchLimit int
	// OutQueue bounds each connection's pending-response queue (default
	// 8192). A client that stops reading long enough to fill it is
	// disconnected — backpressure by eviction, so one slow consumer cannot
	// stall the combiners.
	OutQueue int
	// Flush tunes the per-connection response flush batching.
	Flush FlushPolicy
	// OpTimeout, when positive, fails requests that waited in a mailbox
	// longer than this with fault.ErrTimeout.
	OpTimeout time.Duration
	// Stats, when non-nil, records per-op latency histograms, queue depths
	// and coalescing effectiveness; expose it on an HTTP surface with
	// telemetry.Handler(..., stats.AppendMetrics).
	Stats *Stats
	// Faults, when non-nil, is consulted once per frame at the transport
	// seam (see wire.FrameFaults).
	Faults wire.FrameFaults
	// ForceLIN, when true, serves every increment through the serialized
	// LIN path regardless of the mode the client requested — the operator
	// override for running a linearizable-by-default daemon. Clients still
	// see their requests answered normally; they just pay LIN latency.
	ForceLIN bool
	// LINForward, when set, routes LIN increments through the cluster
	// forwarding hook instead of the local linearizing section: the hook
	// returns ranges minted at the cluster leader's serialization point,
	// or an error that is answered as a retryable TError — exactly one
	// reply either way. connID names the requesting connection so
	// concurrent forwards ride independent upstream streams with stable
	// identities (the deterministic simulation depends on that).
	LINForward func(connID uint64, wire int64, k int64) ([]runtime.Range, error)
	// ConnClosed, when set, is notified once with a connection's id after
	// that connection is abandoned (client disconnect, protocol violation,
	// response-queue overflow). Cluster mode uses it to release the
	// per-connection forward state LINForward accumulated
	// (cluster.Node.ReleaseConn); without it the node would retain one
	// cache entry per connection ever served.
	ConnClosed func(connID uint64)
	// NodeInfo, when set, is the cluster advertisement hook: a THello
	// carrying the node flag is answered with the node id, epoch and owned
	// ranges appended to the TShape reply. Clients that don't set the flag
	// get the pre-extension reply, byte for byte.
	NodeInfo func() (node uint64, epoch uint64, rs []wire.Range)
	// Clock times mailbox residency (OpTimeout), flush deadlines and
	// injected frame delays; nil means the wall clock. The deterministic
	// simulation harness (internal/dst) injects its virtual clock here.
	Clock clock.Clock
	// Flight, when non-nil, records stage spans for traced requests and
	// anomaly black-box events (see the package doc's tracing section).
	// Expose it with telemetry tooling or dump it on anomalies via its
	// sink hook.
	Flight *flightrec.Recorder
	// TraceSample, when positive, server-samples one in every TraceSample
	// untraced increments (requests already carrying a trace id are
	// always honored). Zero records only client-traced requests.
	TraceSample int
	// UDPSockets is how many kernel-sharded sockets ListenPacket opens per
	// address via SO_REUSEPORT, each with its own batched ingest loop
	// (default min(GOMAXPROCS, 4)). One socket on platforms without the
	// fast path.
	UDPSockets int
	// UDPBatch is how many datagrams one ingest syscall may return
	// (default packetio.MaxBatch; clamped to it).
	UDPBatch int
	// UDPWindow sizes each ingest loop's replay-dedup window: how many
	// recent datagram ids are remembered to reject retransmits (default
	// 4096).
	UDPWindow int
	// UDPPortable forces the classic one-ReadFrom-per-datagram UDP loop
	// even where the batched fast path exists — the before/after lever for
	// benchmarking the fast path against its predecessor.
	UDPPortable bool
	// UDPGSO opts the UDP endpoint into segmentation offload: UDP_GRO on
	// the ingest sockets so one read slot carries a stride of coalesced
	// wire frames from GSO senders. Ignored — full fallback to the plain
	// batched path, gso_active gauge 0 — when the kernel probe fails or
	// the build has no fast path.
	UDPGSO bool
}

func (o Options) withDefaults() Options {
	if o.Mailbox <= 0 {
		o.Mailbox = 4096
	}
	if o.Shards <= 0 {
		o.Shards = min(stdruntime.GOMAXPROCS(0), 8)
	}
	if o.BatchLimit <= 0 {
		o.BatchLimit = 1024
	}
	if o.OutQueue <= 0 {
		o.OutQueue = 8192
	}
	if o.UDPSockets <= 0 {
		o.UDPSockets = min(stdruntime.GOMAXPROCS(0), 4)
	}
	if o.UDPBatch <= 0 || o.UDPBatch > packetio.MaxBatch {
		o.UDPBatch = packetio.MaxBatch
	}
	if o.UDPWindow <= 0 {
		o.UDPWindow = 4096
	}
	o.Flush = o.Flush.withDefaults()
	return o
}

// req is one pending SC increment in a shard mailbox.
type req struct {
	c     *conn // nil: fire-and-forget (UDP)
	id    uint64
	wire  int
	k     int64
	folds uint32 // >1: UDP datagrams aggregated into this post (stats weight)
	batch bool   // answer with TRanges (TIncBatch) vs TValue (TInc)
	enq   time.Time
	trace uint64 // nonzero: record stage spans for this request
}

// weight is how many client operations r stands for — 1 for TCP requests,
// the folded datagram count for aggregated UDP posts — so per-op counters
// and latency histograms keep per-datagram semantics under aggregation.
func (r req) weight() int {
	if r.folds > 1 {
		return int(r.folds)
	}
	return 1
}

// outMsg is one queued response: either a frame to encode, or a
// pre-encoded canonical error template plus the request id (and trace)
// to patch in.
type outMsg struct {
	f     wire.Frame
	tmpl  *wire.ErrorTemplate // when set, only f.ID and f.Trace are used
	enqNS int64               // traced replies: when the reply was enqueued (flush span start)
	mode  uint8               // traced replies: 0 = SC, 1 = LIN
}

// fallible is the optional fail-fast form of Backend.IncBatch: a backend
// that can run out of values (the cluster minter when it is cut off from
// the range leader) reports the condition instead of blocking a combiner,
// and the server answers the affected requests with a retryable error.
type fallible interface {
	TryIncBatch(wire, k int) ([]runtime.Range, error)
}

// Server serves one Backend over TCP (and optionally UDP).
type Server struct {
	be    Backend
	fb    fallible // non-nil when the backend is fail-fast capable
	shape network.Shape
	opt   Options
	clk   clock.Clock

	shards []chan req    // one combining mailbox per wire-range shard
	done   chan struct{} // closed when Close begins
	combWg sync.WaitGroup

	// Canonical error replies, pre-encoded once at start so the common
	// shed/expire paths never encode an error string per response.
	tmplBackpressure *wire.ErrorTemplate
	tmplTimeout      *wire.ErrorTemplate

	flight  *flightrec.Recorder // nil: tracing off
	sampler *flightrec.Sampler  // nil: no server-side sampling

	mu    sync.Mutex
	lns   []net.Listener
	udps  []packetio.Conn
	conns map[*conn]struct{}

	readerWg sync.WaitGroup // accept loops, connection readers, packet loops
	writerWg sync.WaitGroup // connection writers

	closing atomic.Bool
	closed  chan struct{} // closed when Close has fully finished
	// ingestMu fences PacketIngest posts against Close: IngestBatch
	// read-holds it once per batch around its posts, Close write-holds it
	// to close the mailboxes and set mailShut. The server's own ingest
	// loops are already waited for by then; a PacketIngest driven from
	// outside is not.
	ingestMu sync.RWMutex
	mailShut bool

	connSeq atomic.Int64
	issued  atomic.Int64

	// linMu is the linearizing section: a LIN request's whole traversal
	// happens inside it, so LIN values are handed out in real-time order
	// (sequential executions of a counting network are gap-free at every
	// step). SC traffic does not take it — that is exactly the freedom SC
	// buys.
	linMu sync.Mutex
	// linWg counts LIN operations in flight (local or forwarded), so Close
	// can drain them explicitly before the out queues shut: a reader mid
	// forward to a cluster leader is not parked in ReadFrame, where the
	// read-deadline nudge would reach it.
	linWg sync.WaitGroup
}

// New builds a server for be. Call Listen/Serve to accept traffic and
// Close to drain and stop.
func New(be Backend, opt Options) *Server {
	s := &Server{
		be:               be,
		shape:            be.Shape(),
		opt:              opt.withDefaults(),
		clk:              clock.Or(opt.Clock),
		done:             make(chan struct{}),
		closed:           make(chan struct{}),
		conns:            make(map[*conn]struct{}),
		tmplBackpressure: wire.NewErrorTemplate(wire.ErrBackpressure),
		tmplTimeout:      wire.NewErrorTemplate(fault.ErrTimeout),
	}
	s.fb, _ = be.(fallible)
	s.flight = s.opt.Flight
	if s.opt.TraceSample > 0 {
		s.sampler = flightrec.NewSampler(s.opt.TraceSample, serverTraceActor)
	}
	nsh := s.opt.Shards
	if s.shape.Width > 0 && nsh > s.shape.Width {
		nsh = s.shape.Width
	}
	if nsh < 1 {
		nsh = 1
	}
	per := s.opt.Mailbox / nsh
	if per < 1 {
		per = 1
	}
	s.shards = make([]chan req, nsh)
	for i := range s.shards {
		s.shards[i] = make(chan req, per)
	}
	if st := s.opt.Stats; st != nil {
		st.sizeShards(nsh)
	}
	for i := range s.shards {
		s.combWg.Add(1)
		go s.combine(i)
	}
	return s
}

// serverTraceActor namespaces server-minted trace ids (untraced
// requests caught by Options.TraceSample). Clients number their actors
// from zero; this high id keeps the two namespaces disjoint.
const serverTraceActor = 0xC0DE00

// anomaly notes one black-box event on the flight recorder; a no-op
// without one. The recorder's sink hook is what turns these into
// artifact dumps.
func (s *Server) anomaly(kind string, trace uint64) {
	if s.flight != nil {
		s.flight.NoteAnomaly(kind, s.clk.Now(), trace)
	}
}

// shardOf maps an input wire onto its combining shard: contiguous wire
// ranges, so a client hammering neighbouring wires stays on one shard's
// cache-warm combiner.
func (s *Server) shardOf(w int) int {
	if s.shape.Width <= 0 || len(s.shards) == 1 {
		return 0
	}
	return w * len(s.shards) / s.shape.Width
}

// post offers r to its wire's shard without blocking; false means the
// shard is full and the request must be shed.
func (s *Server) post(r req) bool {
	select {
	case s.shards[s.shardOf(r.wire)] <- r:
		return true
	default:
		return false
	}
}

// Shape returns the served network's topology (what THello advertises).
func (s *Server) Shape() network.Shape { return s.shape }

// Issued returns the number of counter values the server has handed out.
func (s *Server) Issued() int64 { return s.issued.Load() }

// Stats returns the server's stats sink (nil unless Options.Stats was set).
func (s *Server) Stats() *Stats { return s.opt.Stats }

// Flight returns the server's flight recorder (nil unless Options.Flight
// was set).
func (s *Server) Flight() *flightrec.Recorder { return s.flight }

// Shards returns the number of combining shards the server runs.
func (s *Server) Shards() int { return len(s.shards) }

// Listen starts accepting TCP connections on addr (e.g. "127.0.0.1:0")
// and returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.lns = append(s.lns, ln)
	s.readerWg.Add(1)
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// Serve accepts connections from ln until the server closes. Most callers
// want Listen; Serve exists for custom listeners.
//
// The reader-group Add happens under s.mu with a closing check: Close
// snapshots the listener list under the same mutex before it waits on
// the group, so a Serve racing a Close either registers before the
// snapshot (and is closed and waited for) or observes closing and
// never starts — an unsynchronized Add could otherwise race the Wait.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		_ = ln.Close()
		return
	}
	s.lns = append(s.lns, ln)
	s.readerWg.Add(1)
	s.mu.Unlock()
	s.acceptLoop(ln)
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.readerWg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed (Close) or fatal
		}
		if s.closing.Load() {
			_ = nc.Close()
			return
		}
		c := &conn{
			s:    s,
			id:   int(s.connSeq.Add(1) - 1),
			nc:   nc,
			out:  make(chan outMsg, s.opt.OutQueue),
			dead: make(chan struct{}),
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		if st := s.opt.Stats; st != nil {
			st.connsTotal.Add(1)
			st.connsActive.Add(1)
		}
		s.readerWg.Add(1)
		s.writerWg.Add(1)
		go c.readLoop()
		go c.writeLoop()
	}
}

// Close drains and stops the server: stop accepting, let readers finish
// their current frame, sweep the mailboxes, flush every pending response,
// then close the connections. Idempotent; concurrent calls wait for the
// first to finish.
func (s *Server) Close() error {
	if !s.closing.CompareAndSwap(false, true) {
		<-s.closed
		return nil
	}
	close(s.done)
	s.mu.Lock()
	lns, udps := s.lns, s.udps
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	for _, uc := range udps {
		_ = uc.Close()
	}
	// Unblock readers parked in ReadFrame; they notice closing and exit
	// without killing their connection.
	for _, c := range conns {
		_ = c.nc.SetReadDeadline(s.clk.Now())
	}
	s.readerWg.Wait()
	// Readers also execute LIN operations; wait out any still in flight
	// (a cluster forward can outlive the deadline nudge above) so their
	// replies are enqueued before the out queues close — a graceful drain
	// loses no LIN reply.
	s.linWg.Wait()
	// Readers were the only mailbox senders besides externally driven
	// PacketIngests, which ingestMu holds off (and which see mailShut from
	// here on); the combiners sweep the rest and exit.
	s.ingestMu.Lock()
	s.mailShut = true
	for _, mail := range s.shards {
		close(mail)
	}
	s.ingestMu.Unlock()
	s.combWg.Wait()
	// No senders remain on any out queue: closing them flushes the writers.
	s.mu.Lock()
	conns = conns[:0]
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		close(c.out)
	}
	s.writerWg.Wait()
	for _, c := range conns {
		_ = c.nc.Close()
	}
	close(s.closed)
	return nil
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	_, present := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if present {
		if st := s.opt.Stats; st != nil {
			st.connsActive.Add(-1)
		}
		if cc := s.opt.ConnClosed; cc != nil {
			cc(uint64(c.id))
		}
	}
}

// sleepDone pauses for d unless the server begins closing.
func (s *Server) sleepDone(d time.Duration) {
	if d <= 0 {
		return
	}
	t := s.clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
	case <-s.done:
	}
}

// combine is one shard's coalescing loop: it drains the shard's mailbox,
// steals from idle siblings' mailboxes when its own runs dry, folds the
// pending increments of each input wire into one IncBatch sweep, and
// deals the resulting ranges back to the requests in arrival order.
func (s *Server) combine(shard int) {
	defer s.combWg.Done()
	limit := s.opt.BatchLimit
	mail := s.shards[shard]
	sw := newSweeper(s, shard)
	pending := make([]req, 0, limit)
	for {
		r, ok := <-mail
		if !ok {
			return // mailbox closed and fully drained
		}
		pending = append(pending[:0], r)
	gather:
		for len(pending) < limit {
			select {
			case r2, ok2 := <-mail:
				if !ok2 {
					// Closed mid-gather: sweep what we hold; the next
					// blocking receive observes the close and exits.
					break gather
				}
				pending = append(pending, r2)
			default:
				// Own mailbox dry: rebalance by stealing from siblings
				// before sweeping, so one hot shard cannot pile up work
				// next to idle combiners.
				pending = s.steal(shard, pending, limit)
				break gather
			}
		}
		sw.sweep(pending)
	}
}

// steal moves requests from sibling shards' mailboxes into pending, up to
// limit. Safe because any combiner may execute any wire's IncBatch — the
// backend is concurrent — and each request is still consumed exactly once
// (channel semantics).
func (s *Server) steal(shard int, pending []req, limit int) []req {
	if len(s.shards) == 1 {
		return pending
	}
	stolen := 0
	for i := 1; i < len(s.shards) && len(pending) < limit; i++ {
		from := s.shards[(shard+i)%len(s.shards)]
		dry := false
		for !dry && len(pending) < limit {
			select {
			case r, ok := <-from:
				if !ok {
					dry = true // sibling closed and drained
					break
				}
				pending = append(pending, r)
				stolen++
			default:
				dry = true
			}
		}
	}
	if stolen > 0 {
		if st := s.opt.Stats; st != nil {
			st.steals.Add(uint64(stolen))
		}
	}
	return pending
}

// wireGroup accumulates one input wire's share of a sweep.
type wireGroup struct {
	wire  int
	total int64
	reqs  []int // indices into the sweep's request slice
}

// sweeper holds one combiner's reusable sweep state, so steady-state
// sweeps allocate nothing for grouping — and, when the backend can append
// into a caller buffer, nothing for the sweep results either.
type sweeper struct {
	s      *Server
	shard  int
	groups map[int]*wireGroup
	order  []*wireGroup
	ba     batchAppender   // non-nil when the backend supports it
	rsbuf  []runtime.Range // reused sweep-result buffer (consumed before the next sweep)
}

// batchAppender is the optional allocation-free form of Backend.IncBatch
// (runtime.Network implements it).
type batchAppender interface {
	IncBatchAppend(dst []runtime.Range, wire, k int) []runtime.Range
}

func newSweeper(s *Server, shard int) *sweeper {
	sw := &sweeper{s: s, shard: shard, groups: make(map[int]*wireGroup, 8)}
	sw.ba, _ = s.be.(batchAppender)
	return sw
}

// rangeFree recycles TRanges reply slices between the sweepers that
// build them and the writers that encode them. A buffered channel of
// slice headers rather than a sync.Pool: headers pass by value, so
// neither side pays a boxing allocation per transfer. The pool is
// best-effort — slices on frames dropped by a dying connection are
// simply collected.
var rangeFree = make(chan []wire.Range, 1024)

// getRanges returns an empty reply slice with capacity for hint ranges.
func getRanges(hint int) []wire.Range {
	select {
	case rs := <-rangeFree:
		if cap(rs) >= hint {
			return rs[:0]
		}
	default:
	}
	if hint < 4 {
		hint = 4
	}
	return make([]wire.Range, 0, hint)
}

// putRanges recycles a reply slice once its frame has been encoded.
func putRanges(rs []wire.Range) {
	if cap(rs) == 0 {
		return
	}
	select {
	case rangeFree <- rs[:0]:
	default:
	}
}

// sweep executes one combined pass over the backend.
func (sw *sweeper) sweep(pending []req) {
	s := sw.s
	st := s.opt.Stats
	fl := s.flight
	timed := st != nil || fl != nil
	now := s.clk.Now()

	// Expire requests that overstayed the mailbox.
	live := pending[:0]
	for _, r := range pending {
		if s.opt.OpTimeout > 0 && now.Sub(r.enq) > s.opt.OpTimeout {
			if st != nil {
				st.timeouts.Add(uint64(r.weight()))
			}
			s.anomaly("mailbox_timeout", r.trace)
			if r.c != nil {
				r.c.outstanding.Add(-1)
				m := outMsg{f: wire.Frame{ID: r.id, Trace: r.trace}, tmpl: s.tmplTimeout}
				if r.trace != 0 {
					m.enqNS = now.UnixNano()
				}
				r.c.trySend(m)
			}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if st != nil {
		st.sweeps.Add(1)
		st.sweepReqs.Add(uint64(len(live)))
		st.observeShard(sw.shard, len(s.shards[sw.shard]), uint64(len(live)))
	}

	// Group by input wire, preserving arrival order within each group.
	// The group map and order slice persist across sweeps; only reqs
	// index slices grow, and those also retain capacity.
	order := sw.order[:0]
	for i, r := range live {
		g := sw.groups[r.wire]
		if g == nil {
			g = &wireGroup{wire: r.wire}
			sw.groups[r.wire] = g
		}
		if len(g.reqs) == 0 {
			order = append(order, g)
		}
		g.total += r.k
		g.reqs = append(g.reqs, i)
	}
	sw.order = order

	nowNS := int64(0)
	if timed {
		nowNS = now.UnixNano()
	}
	for _, g := range order {
		var t0, t1 time.Time
		if timed {
			t0 = s.clk.Now()
		}
		var rs []runtime.Range
		var sweepErr error
		if s.fb != nil {
			rs, sweepErr = s.fb.TryIncBatch(g.wire, int(g.total))
		} else if sw.ba != nil {
			sw.rsbuf = sw.ba.IncBatchAppend(sw.rsbuf[:0], g.wire, int(g.total))
			rs = sw.rsbuf
		} else {
			rs = s.be.IncBatch(g.wire, int(g.total))
		}
		if timed {
			t1 = s.clk.Now()
		}
		if sweepErr != nil {
			// The backend could not mint (a cluster node cut off from its
			// range leader): shed the whole group with a retryable error —
			// nothing was issued, nothing is lost, clients re-issue.
			for _, idx := range g.reqs {
				r := live[idx]
				s.anomaly("no_range", r.trace)
				if r.c != nil {
					r.c.outstanding.Add(-1)
					r.c.trySend(errFrame(r.id, r.trace, sweepErr))
				}
			}
			g.total = 0
			g.reqs = g.reqs[:0]
			continue
		}
		s.issued.Add(g.total)
		if st != nil {
			st.sweepTokens.Add(uint64(g.total))
		}
		// Deal the ranges out to the group's requests in arrival order:
		// each takes its k values as sub-ranges of the sweep's ranges.
		// Ranges are materialized only for batch requests with a live
		// connection; plain TInc replies need just the first value and
		// UDP requests need nothing at all.
		var per time.Duration
		var t0NS, t1NS int64
		if timed {
			// Amortized: the sweep traversed once for the whole group, so
			// each request's traverse share is the group cost split evenly.
			per = t1.Sub(t0) / time.Duration(len(g.reqs))
			t0NS = t0.UnixNano()
			t1NS = t1.UnixNano()
		}
		ri, off := 0, int64(0)
		for _, idx := range g.reqs {
			r := live[idx]
			need := r.k
			var out []wire.Range
			if r.c != nil && r.batch {
				// A request's reply spans at most as many ranges as the
				// sweep produced; drawing from the pool (recycled by the
				// writer after encoding) keeps the reply path mostly
				// allocation-free.
				out = getRanges(len(rs))
			}
			first, firstSet := int64(0), false
			for need > 0 {
				cur := rs[ri]
				take := min(cur.Count-off, need)
				if !firstSet {
					first = cur.First + off*cur.Stride
					firstSet = true
				}
				if out != nil {
					out = append(out, wire.Range{
						First:  cur.First + off*cur.Stride,
						Stride: cur.Stride,
						Count:  take,
					})
				}
				off += take
				need -= take
				if off == cur.Count {
					ri++
					off = 0
				}
			}
			if st != nil {
				n := r.weight()
				st.scOps.Add(uint64(n))
				st.latSC.RecordN(r.wire, s.clk.Since(r.enq), n)
				st.stageRecordN(stageScMailbox, r.wire, now.Sub(r.enq), n)
				st.stageRecordN(stageScSweep, r.wire, t0.Sub(now), n)
				st.stageRecordN(stageScTraverse, r.wire, per, n)
			}
			if fl != nil && r.trace != 0 {
				w := int64(r.wire)
				fl.RecordNS(r.trace, flightrec.StageServerMailbox, 0, w, r.enq.UnixNano(), nowNS)
				fl.RecordNS(r.trace, flightrec.StageServerSweep, 0, w, nowNS, t0NS)
				fl.RecordNS(r.trace, flightrec.StageServerTraverse, 0, w, t0NS, t1NS)
			}
			if r.c == nil {
				continue // fire-and-forget
			}
			r.c.outstanding.Add(-1)
			m := outMsg{f: wire.Frame{Type: wire.TValue, ID: r.id, Trace: r.trace, Value: first}}
			if r.batch {
				m = outMsg{f: wire.Frame{Type: wire.TRanges, ID: r.id, Trace: r.trace, Rs: out}}
			}
			if r.trace != 0 {
				m.enqNS = t1NS
			}
			r.c.trySend(m)
		}
		// Reset the group for the next sweep, keeping its capacity.
		g.total = 0
		g.reqs = g.reqs[:0]
	}
}

// errFrame builds the TError response for err (non-canonical errors whose
// message is dynamic; the canonical sentinels use pre-encoded templates).
func errFrame(id, trace uint64, err error) outMsg {
	return outMsg{f: wire.Frame{Type: wire.TError, ID: id, Trace: trace, Code: wire.CodeOf(err), Msg: err.Error()}}
}

// conn is one TCP connection: a reader goroutine parsing request frames
// and a writer goroutine batching and flushing response frames — the
// per-connection goroutine pair.
type conn struct {
	s    *Server
	id   int
	nc   net.Conn
	out  chan outMsg
	dead chan struct{}
	die  sync.Once

	// outstanding counts SC requests posted to combiners whose responses
	// have not been enqueued yet. The writer reads it to decide whether
	// waiting for flush companions can pay off: zero means the client is
	// blocked on us and the buffer must go out now. Decremented before the
	// response is enqueued, so a writer that sees a positive count is
	// guaranteed more traffic (at worst one early flush, never a stall).
	outstanding atomic.Int64

	inSeq, outSeq int // frame-fault sequence numbers (single-threaded each)
}

// markDead abandons the connection: pending responses are discarded and
// the socket is closed. Used for protocol violations, overflow and client
// disconnects — never for server Close, which drains instead.
func (c *conn) markDead() {
	c.die.Do(func() {
		close(c.dead)
		_ = c.nc.Close()
		c.s.removeConn(c)
	})
}

// trySend queues a response without ever blocking the caller (a combiner
// must not stall on one slow client): a full queue kills the connection.
func (c *conn) trySend(m outMsg) {
	select {
	case <-c.dead:
		return
	default:
	}
	select {
	case c.out <- m:
	case <-c.dead:
	default:
		if st := c.s.opt.Stats; st != nil {
			st.evictions.Add(1)
		}
		c.s.anomaly("eviction", m.f.Trace)
		c.markDead()
	}
}

func (c *conn) readLoop() {
	defer c.s.readerWg.Done()
	br := newFrameReader(c.nc)
	// One frame and one scratch buffer recycled for the connection's whole
	// life: the read path performs zero steady-state allocations. process
	// copies what it keeps, so reuse is safe.
	var f wire.Frame
	var scratch []byte
	for {
		if err := wire.ReadFrameInto(br, &f, &scratch); err != nil {
			if !c.s.closing.Load() {
				c.markDead()
			}
			return
		}
		if st := c.s.opt.Stats; st != nil {
			st.framesIn.Add(1)
		}
		if ff := c.s.opt.Faults; ff != nil {
			fa := ff.Frame(c.id, true, c.inSeq)
			c.inSeq++
			c.noteFault(fa)
			if fa.Delay > 0 {
				c.s.sleepDone(fa.Delay)
			}
			if fa.Drop {
				continue
			}
			c.process(&f)
			if fa.Duplicate {
				c.process(&f)
			}
			continue
		}
		c.process(&f)
	}
}

func (c *conn) noteFault(fa wire.FrameFault) {
	st := c.s.opt.Stats
	if st == nil {
		return
	}
	if fa.Drop {
		st.faultDropped.Add(1)
	}
	if fa.Duplicate {
		st.faultDuplicated.Add(1)
	}
	if fa.Delay > 0 {
		st.faultDelayed.Add(1)
	}
}

// process handles one request frame on the reader goroutine. It must not
// retain f — the reader recycles it for the next frame.
func (c *conn) process(f *wire.Frame) {
	s := c.s
	st := s.opt.Stats
	switch f.Type {
	case wire.THello:
		m := outMsg{f: wire.Frame{Type: wire.TShape, ID: f.ID, Trace: f.Trace, Shape: s.shape}}
		if f.NodeAd && s.opt.NodeInfo != nil {
			node, epoch, rs := s.opt.NodeInfo()
			m.f.NodeAd = true
			m.f.Node = node
			m.f.Epoch = epoch
			m.f.Rs = rs
		}
		c.trySend(m)
	case wire.TRead:
		c.trySend(outMsg{f: wire.Frame{Type: wire.TValue, ID: f.ID, Trace: f.Trace, Value: s.issued.Load()}})
	case wire.TSnapshot:
		var body []byte
		if st != nil {
			body, _ = json.Marshal(st.Snapshot())
		} else {
			body, _ = json.Marshal(map[string]int64{"issued": s.issued.Load()})
		}
		c.trySend(outMsg{f: wire.Frame{Type: wire.TInfo, ID: f.ID, Trace: f.Trace, Data: body}})
	case wire.TInc, wire.TIncBatch:
		k := int64(1)
		batch := f.Type == wire.TIncBatch
		if batch {
			k = f.K
		}
		if !s.shape.Contains(f.Wire) {
			if st != nil {
				st.badWire.Add(1)
			}
			s.anomaly("error_frame", f.Trace)
			c.trySend(errFrame(f.ID, f.Trace, fmt.Errorf("%w: wire %d, width %d", wire.ErrBadWire, f.Wire, s.shape.Width)))
			return
		}
		// Propagate the client's trace context, or server-sample one for
		// untraced increments when the operator turned that on.
		trace := f.Trace
		if trace == 0 {
			trace = s.sampler.Sample()
		}
		if k == 0 {
			c.trySend(outMsg{f: wire.Frame{Type: wire.TRanges, ID: f.ID, Trace: trace, Rs: []wire.Range{}}})
			return
		}
		if f.Mode == wire.ModeLIN || s.opt.ForceLIN {
			c.processLIN(f.ID, int(f.Wire), k, batch, trace)
			return
		}
		c.outstanding.Add(1)
		if !s.post(req{c: c, id: f.ID, wire: int(f.Wire), k: k, batch: batch, enq: s.clk.Now(), trace: trace}) {
			c.outstanding.Add(-1)
			if st != nil {
				st.backpressure.Add(1)
			}
			s.anomaly("backpressure", trace)
			m := outMsg{f: wire.Frame{ID: f.ID, Trace: trace}, tmpl: s.tmplBackpressure}
			if trace != 0 {
				m.enqNS = s.clk.Now().UnixNano()
			}
			c.trySend(m)
		}
	default:
		s.anomaly("error_frame", f.Trace)
		c.trySend(errFrame(f.ID, f.Trace, fmt.Errorf("%w: %v is not a request", wire.ErrBadFrame, f.Type)))
	}
}

// processLIN serves one linearizable increment: the whole traversal runs
// inside the linearizing section, so values are handed to LIN requests in
// real-time order — the waiting the condition demands, paid per request.
func (c *conn) processLIN(id uint64, w int, k int64, batch bool, trace uint64) {
	s := c.s
	s.linWg.Add(1)
	defer s.linWg.Done()
	st := s.opt.Stats
	fl := s.flight
	timed := st != nil || (fl != nil && trace != 0)
	var start, locked, end time.Time
	if timed {
		start = s.clk.Now()
	}
	var first int64
	var rs []runtime.Range
	if fwd := s.opt.LINForward; fwd != nil {
		// Cluster mode: the leader's per-epoch serialization point is the
		// linearizing section, so the local linMu is not taken — the whole
		// forward round trip stands in for the traversal.
		locked = start
		var err error
		rs, err = fwd(uint64(c.id), int64(w), k)
		if err != nil {
			s.anomaly("lin_forward_failed", trace)
			c.trySend(errFrame(id, trace, err))
			return
		}
		first = rs[0].First
		s.issued.Add(k)
	} else {
		s.linMu.Lock()
		if timed {
			locked = s.clk.Now()
		}
		if s.fb != nil {
			var err error
			rs, err = s.fb.TryIncBatch(w, int(k))
			if err != nil {
				s.linMu.Unlock()
				s.anomaly("no_range", trace)
				c.trySend(errFrame(id, trace, err))
				return
			}
			first = rs[0].First
		} else if k == 1 {
			first = s.be.Inc(w)
		} else {
			rs = s.be.IncBatch(w, int(k))
			first = rs[0].First
		}
		s.issued.Add(k)
		s.linMu.Unlock()
	}
	if timed {
		end = s.clk.Now()
	}
	if st != nil {
		st.linOps.Add(1)
		st.latLIN.Record(w, end.Sub(start))
		st.stageRecord(stageLinWait, w, locked.Sub(start))
		st.stageRecord(stageLinTraverse, w, end.Sub(locked))
	}
	if fl != nil && trace != 0 {
		fl.RecordNS(trace, flightrec.StageServerLINWait, 1, int64(w), start.UnixNano(), locked.UnixNano())
		fl.RecordNS(trace, flightrec.StageServerTraverse, 1, int64(w), locked.UnixNano(), end.UnixNano())
	}
	var enq int64
	if trace != 0 && timed {
		enq = end.UnixNano()
	}
	if !batch {
		c.trySend(outMsg{f: wire.Frame{Type: wire.TValue, ID: id, Trace: trace, Value: first}, enqNS: enq, mode: 1})
		return
	}
	out := make([]wire.Range, 0, len(rs))
	if len(rs) == 0 {
		out = append(out, wire.Range{First: first, Stride: 1, Count: 1})
	}
	for _, r := range rs {
		out = append(out, wire.Range{First: r.First, Stride: r.Stride, Count: r.Count})
	}
	c.trySend(outMsg{f: wire.Frame{Type: wire.TRanges, ID: id, Trace: trace, Rs: out}, enqNS: enq, mode: 1})
}

// writeLoop drains the connection's response queue into a buffered
// encoder with adaptive flush batching: gather everything queued, flush
// when the pipeline drains (immediately for request-response clients,
// after a short companion wait for pipelined ones), on a byte threshold,
// or on the deadline. Encoding reuses one scratch buffer, so the steady
// state writes allocate nothing.
func (c *conn) writeLoop() {
	defer c.s.writerWg.Done()
	bw := newFrameWriter(c.nc)
	pol := c.s.opt.Flush
	st := c.s.opt.Stats
	fl := c.s.flight
	var scratch []byte
	broken := false
	unflushed := 0 // frames written into bw since the last flush
	var timer clock.Timer
	var timerC <-chan time.Time

	// Flush-stage accounting: when the batch's first frame landed in the
	// buffer (histogram), and which traced replies are waiting in it (one
	// server_flush span each, closed when the flush happens).
	type flushPend struct {
		trace uint64
		mode  uint8
		enq   int64
	}
	var batchStart time.Time
	var tpend []flushPend

	disarm := func() {
		if timerC != nil {
			if !timer.Stop() {
				<-timer.C()
			}
			timerC = nil
		}
	}
	flush := func(deadline bool) {
		if broken || unflushed == 0 {
			return
		}
		if err := bw.Flush(); err != nil {
			broken = true
			c.markDead()
			return
		}
		if st != nil {
			st.flushes.Add(1)
			if deadline {
				st.flushDeadline.Add(1)
			}
		}
		if st != nil || len(tpend) > 0 {
			fnow := c.s.clk.Now()
			if st != nil && !batchStart.IsZero() {
				st.stageRecord(stageFlush, c.id, fnow.Sub(batchStart))
			}
			if len(tpend) > 0 {
				fNS := fnow.UnixNano()
				for _, p := range tpend {
					fl.RecordNS(p.trace, flightrec.StageServerFlush, p.mode, -1, p.enq, fNS)
				}
				tpend = tpend[:0]
			}
		}
		batchStart = time.Time{}
		unflushed = 0
	}
	// writeScratch ships the frame already encoded in scratch; split from
	// write so a duplicate-frame fault re-sends the identical bytes
	// without re-encoding (the reply's Rs slice is recycled into the pool
	// at encode time, exactly once).
	writeScratch := func() {
		if broken || len(scratch) == 0 {
			return
		}
		if _, err := bw.Write(scratch); err != nil {
			broken = true
			c.markDead()
			return
		}
		unflushed++
		if st != nil && unflushed == 1 {
			batchStart = c.s.clk.Now()
		}
		if st != nil {
			st.framesOut.Add(1)
			st.bytesOut.Add(uint64(len(scratch)))
		}
		if bw.Buffered() >= pol.MaxBytes {
			if st != nil {
				st.flushThreshold.Add(1)
			}
			flush(false)
		}
	}
	write := func(m *outMsg) {
		if broken {
			return
		}
		if fl != nil && m.f.Trace != 0 && m.enqNS != 0 {
			tpend = append(tpend, flushPend{m.f.Trace, m.mode, m.enqNS})
		}
		if m.tmpl != nil {
			scratch = m.tmpl.AppendFrameTraced(scratch[:0], m.f.ID, m.f.Trace)
		} else {
			var err error
			scratch, err = wire.AppendFrame(scratch[:0], &m.f)
			if m.f.Rs != nil {
				putRanges(m.f.Rs) // encoded (or fatally broken); recycle
				m.f.Rs = nil
			}
			if err != nil {
				// Server-built frames always encode; treat failure as fatal
				// for this connection rather than corrupting the stream.
				broken = true
				c.markDead()
				return
			}
		}
		writeScratch()
	}
	handle := func(m outMsg) {
		if ff := c.s.opt.Faults; ff != nil {
			fa := ff.Frame(c.id, false, c.outSeq)
			c.outSeq++
			c.noteFault(fa)
			if fa.Delay > 0 {
				c.s.sleepDone(fa.Delay)
			}
			if fa.Drop {
				return
			}
			write(&m)
			if fa.Duplicate {
				writeScratch()
			}
			return
		}
		write(&m)
	}

	for {
		select {
		case m, ok := <-c.out:
			if !ok {
				// Server Close: flush what was queued and finish.
				disarm()
				flush(false)
				return
			}
			handle(m)
		gather:
			for !broken {
				select {
				case m2, ok2 := <-c.out:
					if !ok2 {
						disarm()
						flush(false)
						return
					}
					handle(m2)
				default:
					break gather
				}
			}
			if broken || unflushed == 0 {
				disarm()
				continue
			}
			// Adaptive decision: wait for companions only when requests
			// are still in flight through the combiners for this
			// connection — their responses are guaranteed to arrive within
			// a sweep. With nothing outstanding the client is blocked on
			// this buffer, so it goes out now.
			if pol.MaxDelay <= 0 || c.outstanding.Load() == 0 {
				disarm()
				flush(false)
				continue
			}
			if timerC == nil {
				if timer == nil {
					timer = c.s.clk.NewTimer(pol.MaxDelay)
				} else {
					timer.Reset(pol.MaxDelay)
				}
				timerC = timer.C()
			}
		case <-timerC:
			timerC = nil
			flush(true)
		case <-c.dead:
			// Abandoned connection: discard whatever is still queued.
			disarm()
			return
		}
	}
}

// Drained reports whether every accepted request has been answered and
// the server fully closed; it is closed-channel-as-event for tests.
func (s *Server) Drained() <-chan struct{} { return s.closed }

func newFrameReader(nc net.Conn) *bufio.Reader { return bufio.NewReaderSize(nc, 32<<10) }
func newFrameWriter(nc net.Conn) *bufio.Writer { return bufio.NewWriterSize(nc, 32<<10) }
