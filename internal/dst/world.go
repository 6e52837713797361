// Package dst is the deterministic whole-system simulation harness for
// the serving stack (FoundationDB-style DST). The real client
// (internal/client), wire protocol (internal/wire), server
// (internal/server) and chaos fault plans (internal/chaos) run
// unmodified on a virtual clock (clock.Sim) and an in-memory transport,
// driven by a seeded adversarial scheduler: message delays, frame
// drops/duplicates, transport partitions and backend stalls are all
// chosen from the seed, and the same seed always replays the same
// execution — byte-identical traces.
//
// # How determinism is achieved
//
// Simulated time only moves when the scheduler moves it, and the
// scheduler performs exactly one wake-up per step: it delivers one
// transport chunk or fires one virtual timer, then waits for the system
// to go quiescent (no clock or transport activity across repeated
// yields) before the next step. Concurrency between components is
// therefore mediated entirely through simulated time. Wake-ups that
// could touch shared state at the same instant are kept apart
// structurally: every injected delay (frame faults, backend latency,
// dial latency) is quantized onto a coarse grid plus a small offset
// unique to the sleeping actor, so no two such sleepers ever share a
// deadline. Event and timer queues order ties by deterministic keys
// (stream id, per-stream sequence; timer arming order), never by
// goroutine arrival.
//
// # What a seed produces
//
// Run(seed) expands the seed into a full scenario — network width,
// worker count, op mix (SC/LIN/batch), server tuning, fault plan,
// partition windows — executes it, checks the protocol invariants
// (step property, no duplicate mints, F_nl=0 for LIN, retry/timeout
// budgets, clean drains), and returns the violations plus the replayable
// trace. cmd/countsim sweeps thousands of seeds per CI run.
package dst

import (
	"container/heap"
	"fmt"
	"hash/crc32"
	stdruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/flightrec"
)

// grid is the quantum all injected sleeps are aligned to. Offsets
// within a grid cell encode the sleeping actor's identity, which is
// what keeps distinct actors' deadlines from ever colliding:
//
//	[    1,  4096)  frame-fault delays, unique per (conn, direction)
//	[ 4096,  8192)  backend latency, unique per backend call
//	[ 8192, 12288)  dial latency, unique per worker
const grid = 16384 * time.Nanosecond

// Partition is one interval of simulated time during which the
// transport is black-holed: chunks in flight stall until End, and
// dials are refused.
type Partition struct {
	Start, End time.Duration // offsets from clock.SimEpoch
}

// World is one simulated universe: a virtual clock, an in-memory
// transport whose deliveries it schedules, and the trace of every
// scheduling decision. A World drives exactly one scenario run.
type World struct {
	Clk  *clock.Sim
	seed uint64

	jitterMin, jitterMax time.Duration // per-chunk transport delay range
	partitions           []Partition

	mu        sync.Mutex
	events    eventHeap
	listeners map[string]*memListener
	streamSeq int
	eventSeq  uint64 // total chunks ever scheduled (trace stat)

	netAct atomic.Uint64 // transport activity, for quiescence detection

	recvWindow int // per-connection receive window in bytes (0: unlimited)

	// flight, when non-nil, is the run's shared flight recorder: every
	// worker samples all of its requests into it (RunOptions.Flight).
	flight *flightrec.Recorder

	// trace is written only from the scheduler goroutine.
	trace strings.Builder

	settleRounds int
}

// NewWorld builds a simulated universe for one run. jitterMin/Max bound
// the per-chunk transport delay (drawn per (stream, seq) from the
// seed); partitions are the black-hole windows.
//
// Stopgap (ROADMAP item 1, step 0): NewWorld pins the whole process to
// one P. Settle infers quiescence from Gosched, which is sound only
// when a single P cycles the entire run queue between two activity
// readings; on several Ps a goroutine the scheduler just woke may not
// have run yet when Settle declares the world idle, and the run
// reports a spurious deadlock. The FoundationDB simulator this harness
// follows is single-threaded by design. The pin sits here rather than
// in a TestMain because `go test -cpu 1,2,8` resets GOMAXPROCS before
// every run. It goes away when quiescence is counted at the seams
// rather than guessed (ROADMAP 1(a)/(b)), which is the done condition.
func NewWorld(seed uint64, jitterMin, jitterMax time.Duration, partitions []Partition, settleRounds int) *World {
	stdruntime.GOMAXPROCS(1)
	if jitterMin < 0 {
		jitterMin = 0
	}
	if jitterMax < jitterMin {
		jitterMax = jitterMin
	}
	if settleRounds <= 0 {
		settleRounds = 24
	}
	return &World{
		Clk:          clock.NewSim(),
		seed:         seed,
		jitterMin:    jitterMin,
		jitterMax:    jitterMax,
		partitions:   partitions,
		listeners:    make(map[string]*memListener),
		settleRounds: settleRounds,
	}
}

// event is one scheduled transport delivery: a chunk of bytes (or an
// EOF marker) bound for a connection's inbound buffer. Ordering is by
// (at, stream, seq) — all deterministic per chunk, independent of the
// wall-clock order in which senders enqueued.
type event struct {
	at     time.Time
	stream int
	seq    int
	data   []byte
	eof    bool
	dst    *connBuf
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	if h[i].stream != h[j].stream {
		return h[i].stream < h[j].stream
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return e
}

// SetRecvWindow bounds every subsequently-created connection's receive
// window: a peer that stops reading blocks the writer once the window
// fills, which is how slow-consumer scenarios exert real backpressure
// on the server's per-connection writer. Call before any connection is
// dialed; zero means unlimited (the default).
func (w *World) SetRecvWindow(bytes int) { w.recvWindow = bytes }

// inPartition reports whether t falls inside a black-hole window, and
// the heal time when it does.
func (w *World) inPartition(t time.Time) (time.Time, bool) {
	d := t.Sub(clock.SimEpoch)
	for _, p := range w.partitions {
		if d >= p.Start && d < p.End {
			return clock.SimEpoch.Add(p.End), true
		}
	}
	return time.Time{}, false
}

// send schedules one chunk (or EOF) from st into dst. Delivery time is
// now + a seeded per-(stream, seq) jitter, deferred past any partition
// window, and clamped to preserve per-stream FIFO order. Deterministic:
// every input is either frozen simulated time or a pure function of the
// seed and the chunk's identity.
func (w *World) send(st *stream, data []byte, eof bool, dst *connBuf) {
	w.mu.Lock()
	now := w.Clk.Now()
	seq := st.seq
	st.seq++
	span := int64(w.jitterMax - w.jitterMin)
	jit := w.jitterMin
	if span > 0 {
		jit += time.Duration(mix3(w.seed, 0x6a17, uint64(st.id), uint64(seq)) % uint64(span+1))
	}
	at := now.Add(jit)
	if heal, ok := w.inPartition(at); ok {
		at = heal
	}
	if at.Before(st.lastAt) {
		at = st.lastAt
	}
	st.lastAt = at
	var cp []byte
	if len(data) > 0 {
		cp = append(cp, data...)
	}
	heap.Push(&w.events, event{at: at, stream: st.id, seq: seq, data: cp, eof: eof, dst: dst})
	w.eventSeq++
	w.mu.Unlock()
	w.netAct.Add(1)
}

// peekEvent reports the earliest pending delivery time.
func (w *World) peekEvent() (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.events) == 0 {
		return time.Time{}, false
	}
	return w.events[0].at, true
}

// deliverNext pops the earliest chunk, aligns the clock to its delivery
// time, appends it to the destination buffer and wakes that buffer's
// readers. Exactly one delivery per call — one wake-up per settle
// window.
func (w *World) deliverNext() {
	w.mu.Lock()
	if len(w.events) == 0 {
		w.mu.Unlock()
		return
	}
	e := heap.Pop(&w.events).(event)
	w.mu.Unlock()

	w.Clk.SetNow(e.at)
	tag := ""
	if e.eof {
		tag = " eof"
	}
	fmt.Fprintf(&w.trace, "D %d s%d q%d n%d c%08x%s\n",
		e.at.Sub(clock.SimEpoch).Nanoseconds(), e.stream, e.seq, len(e.data), crc32.ChecksumIEEE(e.data), tag)
	e.dst.deliver(e.data, e.eof)
	w.netAct.Add(1)
}

// fireNextTimer fires exactly the earliest pending virtual timer.
func (w *World) fireNextTimer() bool {
	t, ok := w.Clk.FireNext()
	if !ok {
		return false
	}
	fmt.Fprintf(&w.trace, "T %d\n", t.Sub(clock.SimEpoch).Nanoseconds())
	return true
}

// activity combines clock and transport state changes; two equal
// readings bracketing yields mean nothing observable happened.
func (w *World) activity() uint64 { return w.Clk.Activity() + w.netAct.Load() }

// Settle waits until the system goes quiescent: repeated yields
// observing no clock or transport activity. Each yield cycles every
// runnable goroutine through the scheduler, so a wake-up chain
// (delivery → reader → combiner → writer) advances at least one handoff
// per round; the stability window is sized well past the longest chain.
// A real micro-sleep is taken only when instability persists — the
// common quiescent case never sleeps, which is what keeps a step in the
// microsecond range. Called between every pair of scheduler steps.
func (w *World) Settle() {
	last := w.activity()
	stable := 0
	for i := 0; stable < w.settleRounds; i++ {
		stdruntime.Gosched()
		if i&31 == 31 {
			time.Sleep(20 * time.Microsecond)
		}
		cur := w.activity()
		if cur == last {
			stable++
		} else {
			stable, last = 0, cur
		}
	}
}

// note appends a scheduler-level trace line (scheduler goroutine only).
func (w *World) note(format string, args ...any) {
	fmt.Fprintf(&w.trace, format, args...)
}

// mix3 is a splitmix64-style finalizer over a seed and two identity
// words — the pure hash every seeded decision in the world draws from.
func mix3(seed, k, a, b uint64) uint64 {
	z := seed ^ k*0x9e3779b97f4a7c15 ^ a*0xbf58476d1ce4e5b9 ^ b*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
