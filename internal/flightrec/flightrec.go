// Package flightrec is the serving path's distributed-tracing and
// anomaly flight recorder. A sampled request carries a nonzero trace id
// in the wire header (internal/wire flag bit 1); every hop — client
// combiner, transport, server mailbox, shard sweep, counting-network
// traversal, flush — records a stage Span for that id into a sharded
// ring Recorder. Export merges client- and server-side spans onto one
// Chrome-trace timeline (chrome.go), and the same rings double as a
// black box: anomalies (backpressure, timeouts, evictions, error
// frames) are counted and the recent spans dumped for post-hoc
// causality.
//
// Determinism: the package takes timestamps as values, never reads a
// clock, and Snapshot returns spans in a canonical order — so under
// internal/dst (where all stamps come from the virtual clock) the same
// seed produces byte-identical dumps.
//
// Cost: a nil *Recorder is inert (every method is nil-receiver safe),
// and a nil *Sampler never samples, so with tracing off the serving
// path pays one predictable branch per call site and allocates nothing.
package flightrec

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one hop of a request's journey through the serving
// path. Client stages are recorded by internal/client, server stages by
// internal/server; the merged timeline interleaves them by timestamp.
type Stage uint8

const (
	// StageClientCombine: batch-group birth (first joiner) → the elected
	// flusher hands the combined frame to the connection. Client-side
	// enqueue + combine + encode.
	StageClientCombine Stage = iota
	// StageClientRPC: frame handed to the connection → response frame
	// decoded. Covers transport both ways plus the whole server side.
	StageClientRPC
	// StageClientComplete: response decoded → values dealt out to the
	// waiting callers.
	StageClientComplete
	// StageServerMailbox: request accepted at the door → the sweeper
	// picks it up (mailbox wait).
	StageServerMailbox
	// StageServerSweep: sweep pickup → traversal start (expiry and
	// summing the sweep's k).
	StageServerSweep
	// StageServerTraverse: the counting-network traversal itself
	// (the sweep's IncBatch, or a cluster LIN sweep's forward round
	// trip).
	StageServerTraverse
	// StageServerLINWait is no longer recorded: cluster LIN rides a
	// sweeper and records mailbox, sweep and traverse like SC. The stage
	// is kept only because the benchmark's layer report (bench/layers.go)
	// still reads it.
	StageServerLINWait
	// StageServerFlush: reply enqueued on the connection's out queue →
	// flushed to the socket (adaptive flush hold).
	StageServerFlush

	numStages
)

var stageNames = [numStages]string{
	"client_combine",
	"client_rpc",
	"client_complete",
	"server_mailbox",
	"server_sweep",
	"server_traverse",
	"server_lin_wait",
	"server_flush",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// Server reports whether the stage is recorded server-side.
func (s Stage) Server() bool { return s >= StageServerMailbox }

// Span is one recorded stage of one sampled request. Start and End are
// nanoseconds on the recording clock (UnixNano of the clock.Clock seam;
// under internal/dst that is virtual time).
type Span struct {
	Trace uint64 `json:"trace"`
	Stage Stage  `json:"stage"`
	Mode  uint8  `json:"mode"` // 0 = SC, 1 = LIN (mirrors wire.Mode)
	Wire  int64  `json:"wire"` // input wire, -1 when not applicable
	Start int64  `json:"startNS"`
	End   int64  `json:"endNS"`
}

// Anomaly is one black-box event: something the serving path shed,
// timed out, evicted or failed.
type Anomaly struct {
	Kind  string `json:"kind"`
	At    int64  `json:"atNS"`
	Trace uint64 `json:"trace,omitempty"` // the affected request, if sampled
}

// shardBits fixes the ring sharding; 8 shards keeps recording
// uncontended without making snapshots crawl.
const shardBits = 3

type shard struct {
	mu  sync.Mutex
	pos uint64 // total spans ever recorded into this shard
	buf []Span
}

// Recorder holds the last N spans in sharded rings plus the anomaly
// black box. All methods are safe for concurrent use and nil-receiver
// safe (a nil Recorder records nothing).
type Recorder struct {
	shards [1 << shardBits]shard
	per    int // ring capacity per shard

	anomMu   sync.Mutex
	anomN    map[string]uint64
	anomLog  []Anomaly
	anomPos  uint64
	dropped  atomic.Uint64 // spans overwritten before ever being read
	recorded atomic.Uint64

	// sink, when set, is called (outside the rings' locks) after each
	// anomaly note — the server uses it to dump the black box to an
	// artifact file, with its own rate limiting.
	sink atomic.Pointer[func(kind string)]
}

// maxAnomalyLog bounds the recent-anomaly ring in a dump.
const maxAnomalyLog = 256

// New builds a Recorder keeping roughly the last capacity spans
// (rounded up to the shard grid). capacity <= 0 returns nil — the inert
// recorder.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + (1 << shardBits) - 1) >> shardBits
	r := &Recorder{per: per, anomN: make(map[string]uint64)}
	return r
}

// Record stores one stage span. trace == 0 (unsampled) and nil
// receivers are no-ops, which is what keeps the off path free.
func (r *Recorder) Record(trace uint64, stage Stage, mode uint8, wire int64, start, end time.Time) {
	if r == nil || trace == 0 {
		return
	}
	r.RecordNS(trace, stage, mode, wire, start.UnixNano(), end.UnixNano())
}

// RecordNS is Record with raw nanosecond stamps.
func (r *Recorder) RecordNS(trace uint64, stage Stage, mode uint8, wire int64, start, end int64) {
	if r == nil || trace == 0 {
		return
	}
	sh := &r.shards[splitmix(trace)&(1<<shardBits-1)]
	sh.mu.Lock()
	if len(sh.buf) < r.per {
		sh.buf = append(sh.buf, Span{Trace: trace, Stage: stage, Mode: mode, Wire: wire, Start: start, End: end})
	} else {
		sh.buf[sh.pos%uint64(r.per)] = Span{Trace: trace, Stage: stage, Mode: mode, Wire: wire, Start: start, End: end}
		r.dropped.Add(1)
	}
	sh.pos++
	sh.mu.Unlock()
	r.recorded.Add(1)
}

// NoteAnomaly records one black-box event and triggers the dump sink.
func (r *Recorder) NoteAnomaly(kind string, at time.Time, trace uint64) {
	if r == nil {
		return
	}
	r.anomMu.Lock()
	r.anomN[kind]++
	a := Anomaly{Kind: kind, At: at.UnixNano(), Trace: trace}
	if len(r.anomLog) < maxAnomalyLog {
		r.anomLog = append(r.anomLog, a)
	} else {
		r.anomLog[r.anomPos%maxAnomalyLog] = a
	}
	r.anomPos++
	r.anomMu.Unlock()
	if sink := r.sink.Load(); sink != nil {
		(*sink)(kind)
	}
}

// SetSink installs the anomaly dump hook (may be nil to clear). The
// hook runs on the noting goroutine, outside the recorder's locks.
func (r *Recorder) SetSink(sink func(kind string)) {
	if r == nil {
		return
	}
	if sink == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&sink)
}

// Recorded returns the total spans ever recorded; Dropped the ones
// overwritten by ring wraparound.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.recorded.Load()
}

// Dropped returns the spans lost to ring wraparound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Snapshot returns every span currently held, in canonical order:
// (Start, Trace, Stage, End, Wire). The order is a pure function of the
// span set, so deterministic runs serialize identically regardless of
// ring and shard interleaving.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		out = append(out, sh.buf...)
		sh.mu.Unlock()
	}
	SortSpans(out)
	return out
}

// SortSpans orders spans canonically in place (see Snapshot).
func SortSpans(s []Span) {
	sort.Slice(s, func(i, j int) bool {
		a, b := &s[i], &s[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.Wire < b.Wire
	})
}

// Anomalies returns a copy of the per-kind counts and the recent log in
// note order (oldest first).
func (r *Recorder) Anomalies() (map[string]uint64, []Anomaly) {
	if r == nil {
		return nil, nil
	}
	r.anomMu.Lock()
	defer r.anomMu.Unlock()
	counts := make(map[string]uint64, len(r.anomN))
	for k, v := range r.anomN {
		counts[k] = v
	}
	var log []Anomaly
	if r.anomPos > maxAnomalyLog {
		at := r.anomPos % maxAnomalyLog
		log = append(log, r.anomLog[at:]...)
		log = append(log, r.anomLog[:at]...)
	} else {
		log = append(log, r.anomLog...)
	}
	return counts, log
}

// Sampler decides which requests carry a trace context: a deterministic
// 1-in-every counter, not a random draw, so simulation seeds replay to
// the same sampled set. Each sampler owns an actor namespace; ids are
// (actor << 40) | sequence, unique across actors and nonzero by
// construction.
type Sampler struct {
	every uint64
	base  uint64
	n     atomic.Uint64
	seq   atomic.Uint64
}

// NewSampler samples one request in every (every <= 0 disables; 1
// samples all). actor namespaces the ids: give each client its own.
func NewSampler(every int, actor uint64) *Sampler {
	if every <= 0 {
		return nil
	}
	return &Sampler{every: uint64(every), base: (actor & 0xffffff) << 40}
}

// Sample returns a fresh nonzero trace id when this request is sampled,
// else 0. Nil samplers never sample.
func (s *Sampler) Sample() uint64 {
	if s == nil {
		return 0
	}
	if (s.n.Add(1)-1)%s.every != 0 {
		return 0
	}
	return s.base | (s.seq.Add(1) & (1<<40 - 1))
}

// splitmix spreads trace ids across shards.
func splitmix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
