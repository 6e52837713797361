// Package server exposes a compiled counting network as a network
// service: a TCP listener speaking the internal/wire protocol, with the
// consistency mode as a per-request knob.
//
// The serving layer is where the paper's contrast becomes a systems
// tradeoff. The server folds concurrent increments from many connections
// into batched sweeps, one Backend.Mint each (one fetch-and-add per
// balancer for a whole batch), so under load the per-token cost of the
// network collapses. Linearizable increments ride the same sweeps: the
// paper's price for linearizability is waiting (§1.1, after HSW96), and
// one sweeper already waits — it runs one traversal at a time. A request
// crosses three stages, one to a file: a connection's reader (door.go),
// a sweeper (sweep.go) and the connection's writer (writer.go).
//
// # One sweeper
//
// Connection readers do not touch the network. They validate each request
// and post it into the one mailbox; one sweeper goroutine drains it,
// folds every pending increment into one Mint on the first request's
// wire, and deals the resulting value ranges back to the requests in
// arrival order. The sweeper is the only caller of the backend, so the
// network is quiescent between two Mint calls, and by the step
// property every value a later call hands out lies above every value an
// earlier call handed out. Which wire a call enters on changes no value
// it hands out: from quiescence the next k tokens get the next k values
// on any wire. That makes every single-node increment linearizable in
// fact: a request posted after another was answered is swept by a later
// call. The mode bit a request carries changes only how it is counted
// and traced — on one node. In a cluster (Options.LIN) LIN requests
// post to a second mailbox instead, and a second instance of the same
// sweeper mints each of its sweeps with one call to the LIN backend, the
// cluster's serialization point; SC frames behind a LIN frame on the same
// connection never wait for that call.
//
// When a mailbox is full the reader answers wire.ErrBackpressure
// immediately — load shedding at the door instead of unbounded queueing;
// the shed reply is encoded like any other, into the writer's reused
// buffer, so shedding costs no allocation.
// Requests that sit in a mailbox longer than Options.OpTimeout fail with
// fault.ErrTimeout.
//
// # Shutdown
//
// Close drains rather than drops: accepting stops, connection readers
// finish their current frame, the sweepers sweep what the mailboxes still
// hold, writers flush every pending batched response, and only then
// are the connections closed. A client that disconnects mid-flight
// abandons its outstanding requests (their values are never delivered — a
// bounded gap among observed values, never a duplicate).
//
// # Tracing and the flight recorder
//
// Options.Flight plugs in a flightrec.Recorder: requests carrying a
// trace id in their wire header (and, with Options.TraceSample, a
// deterministic 1-in-N of the untraced ones) get stage spans recorded at
// every hop — mailbox wait, sweep gathering, traversal, and the reply's
// wait to be flushed, each span marked with the request's mode —
// and replies echo the trace id so the client can merge its own spans
// onto the same timeline. The recorder doubles as a black box: shed,
// expired, evicted and failed requests are noted as anomalies. All
// stamps come from Options.Clock, so under internal/dst the spans are
// deterministic. With Flight nil and TraceSample zero the serving path
// pays only nil checks and stays allocation-free.
package server

import (
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
// runtime.Network, a cluster node's Minter (SC) or the node itself
// (LIN), and in tests slow or scripted stand-ins. A backend's one
// sweeper is its only caller, so Mint runs one call at a time; a backend
// that something else also traverses gives up the linearizability the
// sweeper otherwise provides.
type Backend interface {
	// Mint hands out the next k values, entering on wire, as ranges
	// appended to dst. A backend that can run out of values (a cluster
	// node cut off from its leader) returns dst unchanged and an error,
	// which the server answers every request of the sweep with; ids it
	// had already carved for the call are burned, never handed out.
	Mint(dst []runtime.Range, wire, k int) ([]runtime.Range, error)
	Shape() network.Shape
}

// Options tunes a Server. The zero value picks the defaults noted on each
// field.
type Options struct {
	// Mailbox bounds the request queue between connection readers and the
	// sweeper (default 4096). A full mailbox answers requests with
	// wire.ErrBackpressure instead of queueing unboundedly.
	Mailbox int
	// BatchLimit is the most requests one sweep folds together (default
	// 1024).
	BatchLimit int
	// OutQueue bounds each connection's pending-response queue (default
	// 8192). A client that stops reading long enough to fill it is
	// disconnected — backpressure by eviction, so one slow consumer cannot
	// stall the sweeper.
	OutQueue int
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
	// ForceLIN, when true, serves every increment as LIN regardless of the
	// mode the client requested — the operator override for running a
	// linearizable-by-default daemon. On a single node that only relabels
	// the traffic (every sweep is already linearizable); with LIN set,
	// every TCP increment rides the LIN sweeper.
	ForceLIN bool
	// LIN, when set, is the backend LIN increments are minted from (the
	// cluster's serialization point, a cluster.Node). They post to a
	// second mailbox of Mailbox depth, and a second sweeper drains it with
	// one Mint per sweep for the sweep's total k, dealing the values in
	// arrival order. The sweep is linearizable: every member was invoked
	// before the call and none has returned. A failed call sheds the whole
	// sweep with its retryable error. Nil serves LIN from the one mailbox
	// and the main backend. A LIN backend that also answers the cluster's
	// peer opcodes (TGossip, TRangeRequest) gets them from the door, so
	// the node needs no listener of its own; without one the door refuses
	// them with wire.ErrBadFrame.
	LIN Backend
	// Clock times mailbox residency (OpTimeout), stage spans and
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
	// UDPWindow sizes each ingest loop's replay-dedup window: how many
	// recent datagram ids are remembered to reject retransmits (default
	// 4096).
	UDPWindow int
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
	if o.BatchLimit <= 0 {
		o.BatchLimit = 1024
	}
	if o.OutQueue <= 0 {
		o.OutQueue = 8192
	}
	if o.UDPSockets <= 0 {
		o.UDPSockets = min(stdruntime.GOMAXPROCS(0), 4)
	}
	if o.UDPWindow <= 0 {
		o.UDPWindow = 4096
	}
	return o
}

// Server serves one Backend over TCP (and optionally UDP).
type Server struct {
	shape network.Shape
	opt   Options
	clk   clock.Clock

	mail    chan req      // the main mailbox, drained by the sweeper
	linMail chan req      // nil unless Options.LIN: the LIN sweeper's mailbox
	peer    peerHandler   // nil unless Options.LIN answers peer opcodes
	done    chan struct{} // closed when Close begins
	combWg  sync.WaitGroup

	flight  *flightrec.Recorder // nil: tracing off
	sampler *flightrec.Sampler  // nil: no server-side sampling

	// mu guards what Close must find — listeners, sockets, connections —
	// and the reader and writer group Adds for them; register takes it.
	mu      sync.Mutex
	lns     []net.Listener
	udps    []packetio.Conn
	conns   map[*conn]struct{}
	connSeq int // the next connection's id (fault-plan and stats key)

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

	issued atomic.Int64
}

// New builds a server for be. Call Listen/Serve to accept traffic and
// Close to drain and stop.
func New(be Backend, opt Options) *Server {
	s := &Server{
		shape:  be.Shape(),
		opt:    opt.withDefaults(),
		clk:    clock.Or(opt.Clock),
		done:   make(chan struct{}),
		closed: make(chan struct{}),
		conns:  make(map[*conn]struct{}),
	}
	s.flight = s.opt.Flight
	if s.opt.TraceSample > 0 {
		s.sampler = flightrec.NewSampler(s.opt.TraceSample, serverTraceActor)
	}
	s.mail = make(chan req, s.opt.Mailbox)
	s.combWg.Add(1)
	go s.combine(s.mail, be)
	if s.opt.LIN != nil {
		s.peer, _ = s.opt.LIN.(peerHandler)
		s.linMail = make(chan req, s.opt.Mailbox)
		s.combWg.Add(1)
		go s.combine(s.linMail, s.opt.LIN)
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

// Shape returns the served network's topology (what THello advertises).
func (s *Server) Shape() network.Shape { return s.shape }

// Issued returns the number of counter values the server has handed out.
func (s *Server) Issued() int64 { return s.issued.Load() }

// Stats returns the server's stats sink (nil unless Options.Stats was set).
func (s *Server) Stats() *Stats { return s.opt.Stats }

// Flight returns the server's flight recorder (nil unless Options.Flight
// was set).
func (s *Server) Flight() *flightrec.Recorder { return s.flight }

// register runs add — which records what Close must shut and Adds the
// goroutines it must wait for — under s.mu unless Close has begun, and
// reports whether it ran; a refused caller closes what it holds. Close
// sets closing before it snapshots under s.mu, so nothing registers unseen.
func (s *Server) register(add func()) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		return false
	}
	add()
	return true
}

// Listen starts accepting TCP connections on addr (e.g. "127.0.0.1:0")
// and returns the bound address; after Close it returns fault.ErrClosed.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if !s.register(func() { s.lns = append(s.lns, ln); s.readerWg.Add(1) }) {
		_ = ln.Close()
		return nil, fault.ErrClosed
	}
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// Serve accepts connections from ln until the server closes; after
// Close it closes ln and returns at once. Most callers want Listen; Serve
// exists for custom listeners.
func (s *Server) Serve(ln net.Listener) {
	if !s.register(func() { s.lns = append(s.lns, ln); s.readerWg.Add(1) }) {
		_ = ln.Close()
		return
	}
	s.acceptLoop(ln)
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.readerWg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed (Close) or fatal
		}
		if !s.serveConn(nc) {
			return // Close has begun
		}
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
	// Readers were the only mailbox senders besides externally driven
	// PacketIngests, which ingestMu holds off (and which see mailShut from
	// here on); the sweepers sweep the rest — a LIN sweep still waiting
	// on its backend included — and exit.
	s.ingestMu.Lock()
	s.mailShut = true
	close(s.mail)
	if s.linMail != nil {
		close(s.linMail)
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
