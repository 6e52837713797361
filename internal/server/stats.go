package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Stats is the serving layer's metrics sink: lock-free counters plus
// per-mode latency histograms. Create one with NewStats, pass it in
// Options, and expose it over HTTP by handing AppendMetrics to
// telemetry.Handler as an extra appender.
type Stats struct {
	connsTotal  atomic.Int64
	connsActive atomic.Int64

	framesIn  atomic.Uint64
	framesOut atomic.Uint64

	scOps  atomic.Uint64 // SC increments answered
	linOps atomic.Uint64 // LIN increments answered

	sweeps      atomic.Uint64 // sweeper passes that touched the backend
	sweepReqs   atomic.Uint64 // requests folded across all sweeps
	sweepTokens atomic.Uint64 // counter values issued by coalesced sweeps

	queueMax atomic.Int64 // high-water mark of the mailbox depth

	backpressure atomic.Uint64 // requests refused: mailbox full
	timeouts     atomic.Uint64 // requests expired in the mailbox
	badWire      atomic.Uint64 // requests naming an out-of-range wire
	evictions    atomic.Uint64 // connections killed for unread responses

	udpDatagrams atomic.Uint64 // well-formed datagrams accepted
	udpRejected  atomic.Uint64 // datagrams that failed decode/validation
	udpDropped   atomic.Uint64 // datagrams shed: mailbox full, server closed, or no range to mint from

	// udpReject splits udpRejected by reason (indices: udpRejectReason*).
	udpReject [numUDPRejectReasons]atomic.Uint64

	// udpBatch is a log2 histogram of datagrams-per-ReadBatch-syscall:
	// bucket i counts syscalls that returned (2^(i-1), 2^i] datagrams.
	// The batching win is legible here — a loaded fast-path server fills
	// the top buckets, the portable loop never leaves bucket 0.
	udpBatch [udpBatchBuckets]atomic.Uint64

	// udpSegs is the GRO mirror of udpBatch: a log2 histogram of wire
	// frames per received super-datagram. An unsegmented datagram lands in
	// bucket 0; GSO senders at stride 64 fill the top bucket. udpSegsSum
	// carries the exact segment total so the histogram exports a sum.
	udpSegs    [udpBatchBuckets]atomic.Uint64
	udpSegsSum atomic.Uint64

	// gsoActive is 1 while the UDP endpoint has segmentation offload
	// engaged (probe passed and UDP_GRO took on every socket), 0 on the
	// fallback path — the first thing to check when the segments
	// histogram stays in bucket 0.
	gsoActive atomic.Int64

	faultDropped    atomic.Uint64 // frames dropped by injected faults
	faultDuplicated atomic.Uint64 // frames duplicated by injected faults
	faultDelayed    atomic.Uint64 // frames delayed by injected faults

	flushes        atomic.Uint64 // writer flush syscalls
	flushDeadline  atomic.Uint64 // flushes forced by the FlushPolicy deadline
	flushThreshold atomic.Uint64 // flushes forced by the byte threshold
	bytesOut       atomic.Uint64 // response bytes written

	latSC  *telemetry.Histogram // mailbox-entry to response-enqueue
	latLIN *telemetry.Histogram // the same for LIN; a cluster forward's round trip

	// stage holds one histogram per serving-path stage (stageDefs): where
	// a request's time goes, split by the request's consistency mode.
	// Traverse is recorded amortized (sweep duration / requests folded),
	// so one request's share of a sweep is what it is charged.
	stage [numStageHists]*telemetry.Histogram
}

// Stage-histogram indices and their Prometheus labels: mailbox, sweep
// and traverse once per mode, in the same order, so a LIN request's
// stage is its SC stage plus stageLinMailbox. A cluster LIN forward
// records its round trip as traverse/lin. The flush stage is shared by
// both modes (one writer per connection).
const (
	stageScMailbox = iota
	stageScSweep
	stageScTraverse
	stageLinMailbox
	stageLinSweep
	stageLinTraverse
	stageFlush
	numStageHists
)

// UDP admission-rejection reasons, in check order: a frame whose prefix
// fails (bad_frame) is never CRC-decoded; one asking for LIN or a
// non-increment op is bad_mode; a valid increment naming a wire outside
// the topology is bad_wire; a recently seen dedup id is a replay. A
// segment inside a GRO super-datagram that is not exactly one valid frame
// — truncated tail, mis-declared stride, trailing garbage — is
// bad_segment: framing damage specific to the segmented path, kept apart
// from bad_frame so a stride bug cannot hide among random UDP noise.
const (
	udpRejectBadFrame = iota
	udpRejectBadMode
	udpRejectBadWire
	udpRejectReplay
	udpRejectBadSegment
	numUDPRejectReasons
)

var udpRejectLabels = [numUDPRejectReasons]string{"bad_frame", "bad_mode", "bad_wire", "replay", "bad_segment"}

// udpBatchBuckets covers batch sizes 1 .. packetio.MaxBatch (64) in log2
// buckets: 1, 2, 4, 8, 16, 32, 64.
const udpBatchBuckets = 7

// udpRejectReason counts one rejected datagram under its reason label and
// in the total.
func (st *Stats) udpRejectReason(reason int) {
	st.udpRejected.Add(1)
	if reason >= 0 && reason < numUDPRejectReasons {
		st.udpReject[reason].Add(1)
	}
}

// observeUDPBatch records one ReadBatch syscall that returned n datagrams.
func (st *Stats) observeUDPBatch(n int) {
	if n <= 0 {
		return
	}
	b := 0
	for 1<<b < n && b < udpBatchBuckets-1 {
		b++
	}
	st.udpBatch[b].Add(1)
}

// observeUDPSegs records one received datagram carrying n wire-frame
// segments (1 for a plain, uncoalesced datagram).
func (st *Stats) observeUDPSegs(n int) {
	if n <= 0 {
		return
	}
	b := 0
	for 1<<b < n && b < udpBatchBuckets-1 {
		b++
	}
	st.udpSegs[b].Add(1)
	st.udpSegsSum.Add(uint64(n))
}

// setGSOActive flips the gso_active gauge when the UDP endpoint starts.
func (st *Stats) setGSOActive(on bool) {
	var v int64
	if on {
		v = 1
	}
	st.gsoActive.Store(v)
}

var stageDefs = [numStageHists]struct{ stage, mode string }{
	{"mailbox", "sc"},
	{"sweep", "sc"},
	{"traverse", "sc"},
	{"mailbox", "lin"},
	{"sweep", "lin"},
	{"traverse", "lin"},
	{"flush", "all"},
}

// NewStats returns a ready-to-use sink; shards sizes the latency
// histograms (0 picks a small default).
func NewStats(shards int) *Stats {
	if shards <= 0 {
		shards = 8
	}
	st := &Stats{
		latSC:  telemetry.NewHistogram(shards),
		latLIN: telemetry.NewHistogram(shards),
	}
	for i := range st.stage {
		st.stage[i] = telemetry.NewHistogram(shards)
	}
	return st
}

// stageRecord folds one stage duration into its histogram. Durations
// are clamped at zero (coarse clocks can make a stage read negative)
// and a missing histogram (a Stats not built by NewStats) is skipped.
func (st *Stats) stageRecord(idx, key int, d time.Duration) {
	st.stageRecordN(idx, key, d, 1)
}

// stageRecordN is stageRecord with a weight, for aggregated UDP posts
// that stand for several datagrams.
func (st *Stats) stageRecordN(idx, key int, d time.Duration, n int) {
	h := st.stage[idx]
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.RecordN(key, d, n)
}

// observeQueue folds one mailbox-depth observation into the high-water
// mark.
func (st *Stats) observeQueue(depth int) {
	d := int64(depth)
	for {
		cur := st.queueMax.Load()
		if d <= cur || st.queueMax.CompareAndSwap(cur, d) {
			return
		}
	}
}

// recordSwept counts one swept request under its mode: the op counter,
// the end-to-end latency and its mailbox, sweep and traverse stages,
// each weighted by the operations the request stands for.
func (st *Stats) recordSwept(r req, lat, mailbox, sweep, traverse time.Duration) {
	n := r.weight()
	ops, hist, stage := &st.scOps, st.latSC, stageScMailbox
	if r.mode == 1 {
		ops, hist, stage = &st.linOps, st.latLIN, stageLinMailbox
	}
	ops.Add(uint64(n))
	hist.RecordN(r.wire, lat, n)
	st.stageRecordN(stage, r.wire, mailbox, n)
	st.stageRecordN(stage+1, r.wire, sweep, n)
	st.stageRecordN(stage+2, r.wire, traverse, n)
}

// Snapshot is a point-in-time copy of the server's metrics, JSON-ready.
type Snapshot struct {
	ConnsTotal  int64 `json:"connsTotal"`
	ConnsActive int64 `json:"connsActive"`

	FramesIn  uint64 `json:"framesIn"`
	FramesOut uint64 `json:"framesOut"`

	SCOps  uint64 `json:"scOps"`
	LINOps uint64 `json:"linOps"`

	Sweeps      uint64 `json:"sweeps"`
	SweepReqs   uint64 `json:"sweepReqs"`
	SweepTokens uint64 `json:"sweepTokens"`
	QueueMax    int64  `json:"queueMax"`

	Backpressure uint64 `json:"backpressure"`
	Timeouts     uint64 `json:"timeouts"`
	BadWire      uint64 `json:"badWire"`
	Evictions    uint64 `json:"evictions"`

	UDPDatagrams uint64 `json:"udpDatagrams"`
	UDPRejected  uint64 `json:"udpRejected"`
	UDPDropped   uint64 `json:"udpDropped"`

	// UDPRejects splits UDPRejected by reason label; omitted while zero.
	UDPRejects map[string]uint64 `json:"udpRejects,omitempty"`

	// UDPBatchSizes[i] counts ReadBatch syscalls returning (2^(i-1), 2^i]
	// datagrams (so index 0 is the one-datagram bucket); omitted until a
	// UDP endpoint has read traffic.
	UDPBatchSizes []uint64 `json:"udpBatchSizes,omitempty"`

	// UDPSegments[i] counts received datagrams carrying (2^(i-1), 2^i]
	// wire-frame segments (index 0 = plain datagrams); omitted until a UDP
	// endpoint has read traffic. UDPSegmentsSum is the exact segment
	// total; GSOActive reports whether segmentation offload is engaged.
	UDPSegments    []uint64 `json:"udpSegments,omitempty"`
	UDPSegmentsSum uint64   `json:"udpSegmentsSum,omitempty"`
	GSOActive      int64    `json:"gsoActive"`

	FaultDropped    uint64 `json:"faultDropped"`
	FaultDuplicated uint64 `json:"faultDuplicated"`
	FaultDelayed    uint64 `json:"faultDelayed"`

	Flushes        uint64 `json:"flushes"`
	FlushDeadline  uint64 `json:"flushDeadline"`
	FlushThreshold uint64 `json:"flushThreshold"`
	BytesOut       uint64 `json:"bytesOut"`

	LatencySC  telemetry.LatencySummary `json:"latencySC"`
	LatencyLIN telemetry.LatencySummary `json:"latencyLIN"`

	// Stages maps "stage/mode" (e.g. "traverse/lin") to that serving-path
	// stage's latency summary; empty until the server has timed requests.
	Stages map[string]telemetry.LatencySummary `json:"stages,omitempty"`
}

// Snapshot merges the counters and histograms into a Snapshot.
func (st *Stats) Snapshot() Snapshot {
	var stages map[string]telemetry.LatencySummary
	for i, h := range st.stage {
		if h == nil {
			continue
		}
		ls := h.Summary()
		if ls.Count == 0 {
			continue
		}
		if stages == nil {
			stages = make(map[string]telemetry.LatencySummary, numStageHists)
		}
		stages[stageDefs[i].stage+"/"+stageDefs[i].mode] = ls
	}
	return Snapshot{
		ConnsTotal:  st.connsTotal.Load(),
		ConnsActive: st.connsActive.Load(),

		FramesIn:  st.framesIn.Load(),
		FramesOut: st.framesOut.Load(),

		SCOps:  st.scOps.Load(),
		LINOps: st.linOps.Load(),

		Sweeps:      st.sweeps.Load(),
		SweepReqs:   st.sweepReqs.Load(),
		SweepTokens: st.sweepTokens.Load(),
		QueueMax:    st.queueMax.Load(),

		Backpressure: st.backpressure.Load(),
		Timeouts:     st.timeouts.Load(),
		BadWire:      st.badWire.Load(),
		Evictions:    st.evictions.Load(),

		UDPDatagrams: st.udpDatagrams.Load(),
		UDPRejected:  st.udpRejected.Load(),
		UDPDropped:   st.udpDropped.Load(),

		UDPRejects:     st.loadUDPRejects(),
		UDPBatchSizes:  st.loadUDPBatches(),
		UDPSegments:    loadBuckets(&st.udpSegs),
		UDPSegmentsSum: st.udpSegsSum.Load(),
		GSOActive:      st.gsoActive.Load(),

		FaultDropped:    st.faultDropped.Load(),
		FaultDuplicated: st.faultDuplicated.Load(),
		FaultDelayed:    st.faultDelayed.Load(),

		Flushes:        st.flushes.Load(),
		FlushDeadline:  st.flushDeadline.Load(),
		FlushThreshold: st.flushThreshold.Load(),
		BytesOut:       st.bytesOut.Load(),

		LatencySC:  st.latSC.Summary(),
		LatencyLIN: st.latLIN.Summary(),

		Stages: stages,
	}
}

func (st *Stats) loadUDPRejects() map[string]uint64 {
	var out map[string]uint64
	for i := range st.udpReject {
		if v := st.udpReject[i].Load(); v > 0 {
			if out == nil {
				out = make(map[string]uint64, numUDPRejectReasons)
			}
			out[udpRejectLabels[i]] = v
		}
	}
	return out
}

func (st *Stats) loadUDPBatches() []uint64 { return loadBuckets(&st.udpBatch) }

func loadBuckets(src *[udpBatchBuckets]atomic.Uint64) []uint64 {
	any := false
	out := make([]uint64, udpBatchBuckets)
	for i := range src {
		out[i] = src[i].Load()
		any = any || out[i] > 0
	}
	if !any {
		return nil
	}
	return out
}

// CoalescingFactor reports the mean number of requests folded into one
// backend sweep — the serving layer's amplification of the kernel's
// batch path (1 means no coalescing happened).
func (s Snapshot) CoalescingFactor() float64 {
	if s.Sweeps == 0 {
		return 0
	}
	return float64(s.SweepReqs) / float64(s.Sweeps)
}

// AppendMetrics writes the counters in Prometheus text exposition format.
// Its signature matches telemetry.Handler's extra-appender hook.
func (st *Stats) AppendMetrics(w io.Writer) {
	s := st.Snapshot()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("countd_conns_active", "open client connections", s.ConnsActive)
	counter("countd_conns_total", "client connections accepted", uint64(s.ConnsTotal))
	counter("countd_frames_in_total", "request frames read", s.FramesIn)
	counter("countd_frames_out_total", "response frames written", s.FramesOut)
	counter("countd_sc_ops_total", "sequentially consistent increments served", s.SCOps)
	counter("countd_lin_ops_total", "linearizable increments served", s.LINOps)
	counter("countd_sweeps_total", "coalesced backend sweeps", s.Sweeps)
	counter("countd_sweep_requests_total", "requests folded into sweeps", s.SweepReqs)
	counter("countd_sweep_tokens_total", "counter values issued by sweeps", s.SweepTokens)
	gauge("countd_queue_high_water", "mailbox depth high-water mark", s.QueueMax)
	counter("countd_backpressure_total", "requests refused with queue full", s.Backpressure)
	counter("countd_timeouts_total", "requests expired in the mailbox", s.Timeouts)
	counter("countd_bad_wire_total", "requests naming an invalid wire", s.BadWire)
	counter("countd_evictions_total", "connections dropped for unread responses", s.Evictions)
	counter("countd_udp_datagrams_total", "UDP increments accepted", s.UDPDatagrams)
	counter("countd_udp_rejected_total", "UDP datagrams rejected", s.UDPRejected)
	counter("countd_udp_dropped_total", "UDP datagrams shed: mailbox full, server closed, or no range to mint from", s.UDPDropped)
	if len(s.UDPRejects) > 0 {
		fmt.Fprintf(w, "# HELP countd_udp_reject_reason_total UDP datagrams rejected by reason\n# TYPE countd_udp_reject_reason_total counter\n")
		for _, label := range udpRejectLabels {
			if v, ok := s.UDPRejects[label]; ok {
				fmt.Fprintf(w, "countd_udp_reject_reason_total{reason=\"%s\"} %d\n", label, v)
			}
		}
	}
	if len(s.UDPBatchSizes) > 0 {
		fmt.Fprintf(w, "# HELP countd_udp_batch_size datagrams returned per UDP read syscall\n# TYPE countd_udp_batch_size histogram\n")
		var cum uint64
		for i, c := range s.UDPBatchSizes {
			cum += c
			fmt.Fprintf(w, "countd_udp_batch_size_bucket{le=\"%d\"} %d\n", 1<<i, cum)
		}
		fmt.Fprintf(w, "countd_udp_batch_size_bucket{le=\"+Inf\"} %d\n", cum)
		fmt.Fprintf(w, "countd_udp_batch_size_sum %d\n", s.UDPDatagrams+s.UDPRejected)
		fmt.Fprintf(w, "countd_udp_batch_size_count %d\n", cum)
	}
	gauge("countd_udp_gso_active", "1 while UDP GSO/GRO segmentation offload is engaged", s.GSOActive)
	if len(s.UDPSegments) > 0 {
		fmt.Fprintf(w, "# HELP countd_udp_segments_per_datagram wire frames per received UDP datagram (GRO coalescing)\n# TYPE countd_udp_segments_per_datagram histogram\n")
		var cum uint64
		for i, c := range s.UDPSegments {
			cum += c
			fmt.Fprintf(w, "countd_udp_segments_per_datagram_bucket{le=\"%d\"} %d\n", 1<<i, cum)
		}
		fmt.Fprintf(w, "countd_udp_segments_per_datagram_bucket{le=\"+Inf\"} %d\n", cum)
		fmt.Fprintf(w, "countd_udp_segments_per_datagram_sum %d\n", s.UDPSegmentsSum)
		fmt.Fprintf(w, "countd_udp_segments_per_datagram_count %d\n", cum)
	}
	counter("countd_fault_dropped_total", "frames dropped by fault injection", s.FaultDropped)
	counter("countd_fault_duplicated_total", "frames duplicated by fault injection", s.FaultDuplicated)
	counter("countd_fault_delayed_total", "frames delayed by fault injection", s.FaultDelayed)
	counter("countd_flush_total", "response writer flush syscalls", s.Flushes)
	counter("countd_flush_deadline_total", "flushes forced by the flush deadline", s.FlushDeadline)
	counter("countd_flush_threshold_total", "flushes forced by the byte threshold", s.FlushThreshold)
	counter("countd_bytes_out_total", "response bytes written", s.BytesOut)
	hist := func(name, help string, ls telemetry.LatencySummary) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		telemetry.WriteHistogram(w, name, "", ls)
	}
	hist("countd_latency_sc_seconds", "SC increment latency", s.LatencySC)
	hist("countd_latency_lin_seconds", "LIN increment latency", s.LatencyLIN)
	fmt.Fprintf(w, "# HELP countd_stage_seconds serving-path stage latency by stage and mode\n# TYPE countd_stage_seconds histogram\n")
	for _, def := range stageDefs {
		ls, ok := s.Stages[def.stage+"/"+def.mode]
		if !ok {
			continue
		}
		telemetry.WriteHistogram(w, "countd_stage_seconds", fmt.Sprintf("stage=%q,mode=%q", def.stage, def.mode), ls)
	}
}
