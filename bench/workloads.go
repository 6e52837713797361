package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	stdruntime "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/consistency"
	"repro/internal/construct"
	"repro/internal/flightrec"
	"repro/internal/network"
	"repro/internal/packetio"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/wire"
)

// Frozen workload constants. A later change that edits any of these has
// changed the benchmark, not the system (choosing-metrics §6.2); the
// rates were sized once so the process keeps about a third of one vCPU
// busy.
const (
	// gatedProcs is the GOMAXPROCS every workload runs at. On the shared
	// 2-vCPU guest the cost of waking the other vCPU belongs to the
	// hypervisor, not to this code: at GOMAXPROCS 2 it doubled CPU per op
	// (tcp_sc_paced 6.4 µs against 3.0, ingest_sc_paced 0.52 against 0.26),
	// flipped between two levels from run to run (tcp_sc_paced 4.1–4.6
	// or 5.8–6.4 µs) and drifted 30 % within the hour. With one P the same
	// work repeats to a few per cent. What two Ps cost is still reported,
	// ungated, by the traced run's closed-loop and contended legs.
	gatedProcs = 1

	width    = 16   // B(16), every workload
	chunkOps = 1024 // inproc_inc: Inc calls per timed chunk

	tick        = time.Millisecond
	ticksPerSec = int(time.Second / tick)
	scRate      = 100_000 // tcp_sc_paced: offered SC IncMode/s
	linRate     = 80_000  // tcp_lin_paced: offered LIN IncMode/s
	callers     = 128     // caller goroutines sharing one client
	clientConns = 2
	clientWin   = 64
	sampleEvery = 8 // TCP calls timed 1 in 8

	ingestFrames  = packetio.MaxBatch            // frames per packetio.Batch
	ingestBatches = 16                           // batches per tick
	ingestPerTick = ingestFrames * ingestBatches // 1024 frames
	ingestRate    = ingestPerTick * ticksPerSec  // 1.024 M frames/s

	warmUp    = time.Second // part of setup_s, at the workload's own load
	windowLen = time.Second // cpu/op, p50 and ops/s are taken per window this long

	flightSpans     = 1 << 13 // per-side flight recorder ring, traced run
	traceSample     = 16      // 1 in 16 requests carries a trace id, traced run
	harnessSpanStep = 64      // harness keeps a span for 1 in 64 timed calls

	// Dedup ids stay in [2^41, 2^42): one uvarint length, so every
	// ingest frame has the same size whatever the seed.
	idBand = uint64(1) << 41
	idMask = idBand - 1
)

// Wires are picked with a mask, so width must be a power of two.
var _ = [1]struct{}{}[width&(width-1)]

// workloadDef is one benchmark workload: what it offers, at what frozen
// rate, and why it is here.
type workloadDef struct {
	name string
	rate int // offered ops/s; 0 means closed loop
	why  string
	mode wire.Mode // the mode its requests, and so its stage spans, carry
	run  func(p params, l *leg) error
	// extra is the traced run's additional leg for this workload's
	// layers, nil for none: it fills metrics and may record spans.
	extra func(out map[string]float64, tr *tracer, root int, dur time.Duration) error
}

var workloads = []workloadDef{
	{name: "inproc_inc",
		why: "one goroutine, closed loop, runtime.Network.Inc on compiled B(16): only the runtime layer works, so a traversal change shows here alone",
		run: runInproc},
	{name: "tcp_sc_paced", rate: scRate,
		why: "open loop, 100000 SC IncMode/s over loopback TCP: client combining, codec, mailbox, sweep and flush do the work and runtime almost none",
		run: func(p params, l *leg) error { return runTCP(p, l, wire.ModeSC, scRate) },
		extra: func(out map[string]float64, _ *tracer, _ int, dur time.Duration) (err error) {
			out["loadgen.closed_sc_ops_per_s"], err = closedLoop(wire.ModeSC, dur)
			return err
		}},
	{name: "tcp_lin_paced", rate: linRate, mode: wire.ModeLIN,
		why: "open loop, 80000 LIN IncMode/s over loopback TCP: no coalescing, one frame and one serialized traversal per op, the costly side of the paper's gap",
		run: func(p params, l *leg) error { return runTCP(p, l, wire.ModeLIN, linRate) },
		extra: func(out map[string]float64, _ *tracer, _ int, dur time.Duration) (err error) {
			out["loadgen.closed_lin_ops_per_s"], err = closedLoop(wire.ModeLIN, dur)
			return err
		}},
	{name: "ingest_sc_paced", rate: ingestRate,
		why:   "open loop, 1024000 unique TInc frames/s into PacketIngest.IngestBatch: the UDP admission path (filter, CRC, window, post, sweep) without the kernel",
		run:   runIngest,
		extra: socketLeg},
}

// params is what one leg of a run is asked to do.
type params struct {
	seed   int64
	warm   time.Duration
	dur    time.Duration
	traced bool
	tr     *tracer // nil unless traced
	root   int     // parent span for the leg's spans
}

// window is one slice of a measured leg, cut at a generator tick.
type window struct {
	end, elapsed, cpu time.Duration // end is on the leg's clock
	ops               int64
}

// leg is everything one set-up + warm-up + measured window produced.
type leg struct {
	setupS    float64            // set-up start → first measured op
	parts     map[string]float64 // layer metrics the leg timed itself, by name
	windows   []window
	latUS     []float64 // service latency of timed calls
	latEnd    []int64   // when each returned, ns on the leg's clock
	dueUS     []float64 // completion minus due instant (paced)
	lateUS    []float64 // generator wake-up minus tick due instant
	backlog   int64     // deepest hand-off queue seen by the generator
	attempted int64
	failed    int64
	opsPerS   float64
	mallocs   uint64
	steal     float64
	issued    int64
	audit     []string // violated invariants; empty means correct

	snap     *server.Snapshot // traced only
	cliSpans []flightrec.Span
	srvSpans []flightrec.Span
}

func (l *leg) violate(format string, a ...any) {
	l.audit = append(l.audit, fmt.Sprintf(format, a...))
}

// cpuPerOpUS is process CPU per completed op, per window, summarised by
// quietHalf.
func (l *leg) cpuPerOpUS() float64 {
	var v []float64
	for _, w := range l.windows {
		if w.ops > 0 {
			v = append(v, float64(w.cpu.Nanoseconds())/1e3/float64(w.ops))
		}
	}
	return quietHalf(v)
}

// p50US is the median service latency, per window, summarised by
// quietHalf.
func (l *leg) p50US() float64 { return quietHalf(l.windowP50s()) }

// windowP50s is each window's median service latency, in µs.
func (l *leg) windowP50s() []float64 {
	per := make([][]float64, len(l.windows))
	for i, end := range l.latEnd {
		w := sort.Search(len(l.windows), func(w int) bool { return int64(l.windows[w].end) >= end })
		if w < len(per) {
			per[w] = append(per[w], l.latUS[i])
		}
	}
	var v []float64
	for _, lat := range per {
		if len(lat) > 0 {
			v = append(v, median(lat))
		}
	}
	return v
}

// windowRate is the median over windows of ops completed per second.
func (l *leg) windowRate() float64 {
	var v []float64
	for _, w := range l.windows {
		if w.elapsed > 0 {
			v = append(v, float64(w.ops)/w.elapsed.Seconds())
		}
	}
	return median(v)
}

// meter cuts a leg into windows from the generator's own goroutine and
// brackets the measured part with process-wide counters.
type meter struct {
	base  time.Time // zero of the leg's clock
	t, c  time.Duration
	ops   int64
	m0    stdruntime.MemStats
	s0    cpuTicks
	begun bool
}

func (m *meter) now() int64 { return int64(time.Since(m.base)) }

func (m *meter) unix(ns int64) int64 { return m.base.UnixNano() + ns }

// sleepUntil parks the generator until due and returns how late it woke.
func (m *meter) sleepUntil(due int64) int64 {
	if d := due - m.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return m.now() - due
}

// begin opens the first window; ops is the completed count so far.
func (m *meter) begin(ops int64) {
	stdruntime.ReadMemStats(&m.m0)
	m.s0 = stealNow()
	m.t, m.c, m.ops, m.begun = time.Since(m.base), cpuNow(), ops, true
}

// cut closes the window opened by the previous cut (or begin).
func (m *meter) cut(l *leg, ops int64) {
	t, c := time.Since(m.base), cpuNow()
	l.windows = append(l.windows, window{end: t, elapsed: t - m.t, cpu: c - m.c, ops: ops - m.ops})
	m.t, m.c, m.ops = t, c, ops
}

// end reads the bracketing counters once the measured part is over.
func (m *meter) end(l *leg) {
	if !m.begun {
		return
	}
	var m1 stdruntime.MemStats
	stdruntime.ReadMemStats(&m1)
	l.mallocs = m1.Mallocs - m.m0.Mallocs
	l.steal = stealFrac(m.s0, stealNow())
}

// windowTicks is how many ticks make one window of a leg dur long.
func windowTicks(dur time.Duration) int {
	if dur < windowLen {
		return int(dur / tick)
	}
	return int(windowLen / tick)
}

// system is the stack a workload drives: the compiled network and, for
// the served workloads, a server and a client or an ingest handle.
type system struct {
	net   *runtime.Network
	srv   *server.Server
	cli   *client.Client
	ing   *server.PacketIngest
	stats *server.Stats
}

// timed runs fn, stores its duration in l.parts under the metric's name
// and records a span under the same name less its unit.
func timed(p params, l *leg, metric string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	l.parts[metric] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
	p.tr.add(strings.TrimSuffix(metric, "_us"), p.root, 0, t0.UnixNano(), t1.UnixNano())
	return err
}

// setUp builds the stack layer by layer, timing each public call.
// served adds the server; tcp additionally listens and dials, otherwise
// the server gets an ingest handle.
func setUp(p params, l *leg, served, tcp bool) (*system, error) {
	sys := &system{}
	l.parts = map[string]float64{}
	var spec *network.Network
	_ = timed(p, l, "construct.build_us", func() error {
		spec = construct.MustBitonic(width)
		return nil
	})
	err := timed(p, l, "runtime.compile_us", func() (err error) {
		sys.net, err = runtime.Compile(spec)
		return err
	})
	if err != nil || !served {
		return sys, err
	}
	var sopt server.Options
	copt := client.Options{Conns: clientConns, Window: clientWin}
	if p.traced {
		sys.stats = server.NewStats(0)
		sopt.Stats = sys.stats
		sopt.Flight = flightrec.New(flightSpans)
		copt.Flight = flightrec.New(flightSpans)
		copt.TraceSample = traceSample
		copt.TraceActor = 1
		if !tcp {
			sopt.TraceSample = traceSample // no client to stamp ingest frames
		}
	}
	var addr net.Addr
	err = timed(p, l, "server.listen_us", func() (err error) {
		sys.srv = server.New(sys.net, sopt)
		if !tcp {
			sys.ing = sys.srv.NewPacketIngest()
			return nil
		}
		addr, err = sys.srv.Listen("127.0.0.1:0")
		return err
	})
	if err != nil || !tcp {
		return sys, err
	}
	err = timed(p, l, "client.dial_us", func() (err error) {
		sys.cli, err = client.Dial(addr.String(), copt)
		return err
	})
	return sys, err
}

// tearDown closes client then server and collects what they recorded.
func tearDown(p params, l *leg, sys *system) {
	if sys.cli != nil {
		l.cliSpans = sys.cli.Flight().Snapshot()
		_ = sys.cli.Close() // the client holds nothing unflushed
	}
	if sys.srv == nil {
		return
	}
	_ = timed(p, l, "server.close_us", sys.srv.Close)
	l.issued = sys.srv.Issued()
	l.srvSpans = sys.srv.Flight().Snapshot()
	if sys.stats != nil {
		s := sys.stats.Snapshot()
		l.snap = &s
	}
}

// wireTable is the seed's wire assignment: job i enters on table[i&mask].
func wireTable(seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	t := make([]int32, 1<<12)
	for i := range t {
		t[i] = int32(r.Intn(width))
	}
	return t
}

// dedupID is the n-th id of the seed's stream starting at base: unique
// for 2^41 frames and always the same encoded length.
func dedupID(base, n uint64) uint64 { return idBand | (base+n)&idMask }

// runInproc: one goroutine, closed loop, Inc round-robin over a seeded
// wire order, timed per 1024-op chunk. Between chunks the network is
// quiescent, so each chunk's values must be exactly the next 1024.
func runInproc(p params, l *leg) error {
	setupStart := time.Now()
	sys, err := setUp(p, l, false, false)
	if err != nil {
		return err
	}
	order := rand.New(rand.NewSource(p.seed)).Perm(width)
	m := &meter{base: time.Now()}
	vals := make([]int64, chunkOps)
	chunkNS := make([]float64, 0, p.dur/(20*time.Microsecond))
	l.latEnd = make([]int64, 0, cap(chunkNS))
	win := int64(windowTicks(p.dur)) * int64(tick)
	var done, wi, stop, nextCut int64
loop:
	for {
		switch now := m.now(); {
		case !m.begun && now >= int64(p.warm):
			l.setupS = time.Since(setupStart).Seconds()
			if p.dur == 0 {
				return nil
			}
			m.begin(done)
			stop, nextCut = int64(m.t+p.dur), int64(m.t)+win
		case m.begun && now >= nextCut:
			m.cut(l, done)
			nextCut += win
			if now >= stop {
				break loop
			}
		}
		t0 := m.now()
		for i := range vals {
			vals[i] = sys.net.Inc(order[wi&(width-1)])
			wi++
		}
		t1 := m.now()
		if m.begun {
			chunkNS = append(chunkNS, float64(t1-t0))
			l.latEnd = append(l.latEnd, t1)
			if p.tr != nil && len(chunkNS)%harnessSpanStep == 0 {
				p.tr.add("runtime.Inc x1024", p.root, uint64(done), m.unix(t0), m.unix(t1))
			}
		}
		var seen [chunkOps / 64]uint64
		for _, v := range vals {
			r := v - done
			if r < 0 || r >= chunkOps || seen[r>>6]&(1<<(uint(r)&63)) != 0 {
				l.failed++
				continue
			}
			seen[r>>6] |= 1 << (uint(r) & 63)
		}
		done += chunkOps
	}
	m.end(l)
	l.attempted, l.issued = done, sys.net.Issued()
	for i := range vals {
		vals[i] -= done - chunkOps
	}
	if err := runtime.Verify(vals); err != nil {
		l.violate("last chunk at quiescence: %v", err)
	}
	if l.failed != 0 {
		l.violate("%d values repeated or outside their quiescent chunk", l.failed)
	}
	if l.issued != done {
		l.violate("network issued %d, harness drew %d", l.issued, done)
	}
	l.latUS = chunkNS
	for i := range l.latUS {
		l.latUS[i] /= 1e3 * chunkOps
	}
	// The rate the reported p50 chunk ran at: a total over seconds
	// would absorb steal, a chunk does not.
	l.opsPerS = 1e6 / l.p50US()
	return nil
}

// job is one due increment of a paced TCP workload.
type job struct {
	due     int64 // ns on the meter's clock
	n       int64 // index in the schedule
	wire    int32
	sampled bool
}

// sample is one timed call, kept for latency and the LIN audit.
type sample struct {
	due, start, end, value int64
}

// schedule is the seed's job stream for a paced TCP workload: job n is
// due at tick n/perTick, enters on the seed's wire table, and is timed
// when it falls on the sampling stride inside the measured part.
type schedule struct {
	perTick   int
	warmTicks int
	table     []int32
}

func (s schedule) job(n int64) job {
	k := n / int64(s.perTick)
	return job{
		due:     k * int64(tick),
		n:       n,
		wire:    s.table[n&int64(len(s.table)-1)],
		sampled: k >= int64(s.warmTicks) && n%sampleEvery == 0,
	}
}

// runTCP: open loop over loopback TCP. Every tick the generator hands
// rate·tick due jobs to idle callers over a channel deep enough for the
// whole schedule, so it never blocks and never refuses: a system that
// falls behind shows as a backlog, late completions and a delivered rate
// below the offered one, not as a stalled generator.
func runTCP(p params, l *leg, mode wire.Mode, rate int) error {
	setupStart := time.Now()
	sys, err := setUp(p, l, true, true)
	if err != nil {
		tearDown(p, l, sys)
		return err
	}
	sched := schedule{perTick: rate / ticksPerSec, warmTicks: int(p.warm / tick), table: wireTable(p.seed)}
	measTicks, win := int(p.dur/tick), windowTicks(p.dur)
	endTick := sched.warmTicks + measTicks
	ids := newIDSet(int64(endTick*sched.perTick) + 1<<16)
	jobs := make(chan int64, endTick*sched.perTick) // the whole schedule, see above
	samples := make([]sample, measTicks*sched.perTick/sampleEvery+sched.perTick)
	var nSamples, completed, failed atomic.Int64
	m := &meter{base: time.Now()}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range jobs {
				j := sched.job(n)
				start := m.now()
				v, err := sys.cli.IncMode(ctx, int(j.wire), mode)
				end := m.now()
				if err != nil || !ids.mark(v) {
					failed.Add(1)
					continue
				}
				completed.Add(1)
				if !j.sampled {
					continue
				}
				samples[nSamples.Add(1)-1] = sample{j.due, start, end, v}
				if p.tr != nil && j.n%(sampleEvery*harnessSpanStep) == 0 {
					p.tr.add("client.IncMode", p.root, uint64(j.n), m.unix(start), m.unix(end))
				}
			}
		}()
	}
	var n int64
	l.lateUS = make([]float64, 0, measTicks)
	for k := 0; ; k++ {
		late := m.sleepUntil(int64(k) * int64(tick))
		if since := k - sched.warmTicks; since == 0 {
			l.setupS = time.Since(setupStart).Seconds()
			if measTicks > 0 {
				m.begin(completed.Load())
			}
		} else if since > 0 && since%win == 0 {
			m.cut(l, completed.Load())
		}
		if k == endTick {
			break
		}
		if k >= sched.warmTicks {
			l.lateUS = append(l.lateUS, float64(late)/1e3)
			if d := int64(len(jobs)); d > l.backlog {
				l.backlog = d
			}
		}
		for i := 0; i < sched.perTick; i++ {
			jobs <- n
			n++
		}
	}
	close(jobs)
	wg.Wait()
	m.end(l)
	tearDown(p, l, sys)
	if measTicks == 0 {
		return nil
	}
	l.attempted = int64(measTicks * sched.perTick)
	l.failed = failed.Load()
	l.opsPerS = l.windowRate()
	samples = samples[:nSamples.Load()]
	for _, s := range samples {
		l.latUS = append(l.latUS, float64(s.end-s.start)/1e3)
		l.latEnd = append(l.latEnd, s.end)
		l.dueUS = append(l.dueUS, float64(s.end-s.due)/1e3)
	}
	if err := ids.check(l.issued); err != nil {
		l.violate("%v", err)
	}
	if done := completed.Load(); done > l.issued {
		l.violate("%d ops completed but server issued %d", done, l.issued)
	}
	if mode == wire.ModeLIN {
		if bad := nonLinearizable(samples); bad != 0 {
			l.violate("%d of %d sampled LIN ops are non-linearizable", bad, len(samples))
		}
	}
	return nil
}

// nonLinearizable counts sampled ops that a completely earlier sampled
// op outranks. A subset of a linearizable history is linearizable, so
// every op counted is a real violation.
func nonLinearizable(samples []sample) int {
	ops := make([]consistency.Op, len(samples))
	for i, s := range samples {
		ops[i] = consistency.Op{Index: i, Value: s.value, EnterSeq: s.start, ExitSeq: s.end}
	}
	bad := 0
	for _, b := range consistency.NonLinearizable(ops) {
		if b {
			bad++
		}
	}
	return bad
}

// runIngest: the UDP admission path driven directly. Every tick the
// generator packs 16 batches of 64 unique-id TInc frames and admits each
// with IngestBatch, first waiting until the combiners have minted all but
// the previous tick's frames so that no mailbox can overflow.
func runIngest(p params, l *leg) error {
	setupStart := time.Now()
	sys, err := setUp(p, l, true, false)
	if err != nil {
		tearDown(p, l, sys)
		return err
	}
	warmTicks, measTicks, win := int(p.warm/tick), int(p.dur/tick), windowTicks(p.dur)
	table := wireTable(p.seed)
	base := rand.New(rand.NewSource(p.seed)).Uint64()
	b := packetio.NewBatch(ingestFrames)
	var f wire.Frame
	var encErr error
	enc := func(dst []byte) []byte {
		out, err := wire.AppendFrame(dst, &f)
		if err != nil {
			encErr = err
		}
		return out
	}
	m := &meter{base: time.Now()}
	l.lateUS = make([]float64, 0, measTicks)
	l.latUS = make([]float64, 0, measTicks*ingestBatches)
	l.latEnd = make([]int64, 0, measTicks*ingestBatches)
	var sent int64
	for k := 0; ; k++ {
		late := m.sleepUntil(int64(k) * int64(tick))
		if since := k - warmTicks; since == 0 {
			l.setupS = time.Since(setupStart).Seconds()
			if measTicks > 0 {
				m.begin(sys.srv.Issued())
			}
		} else if since > 0 && since%win == 0 {
			m.cut(l, sys.srv.Issued())
		}
		if k == warmTicks+measTicks {
			break
		}
		measured := k >= warmTicks
		if measured {
			l.lateUS = append(l.lateUS, float64(late)/1e3)
			if d := sent - sys.srv.Issued(); d > l.backlog {
				l.backlog = d
			}
		}
		for sent-sys.srv.Issued() > ingestPerTick {
			stdruntime.Gosched()
		}
		for i := 0; i < ingestBatches; i++ {
			b.Reset()
			for j := 0; j < ingestFrames; j++ {
				f = wire.Frame{Type: wire.TInc, ID: dedupID(base, uint64(sent)), Wire: int64(table[sent&int64(len(table)-1)])}
				if !b.AppendWith(enc) {
					l.failed++
				}
				sent++
			}
			t0 := m.now()
			sys.ing.IngestBatch(b)
			t1 := m.now()
			if !measured {
				continue
			}
			l.latUS = append(l.latUS, float64(t1-t0)/1e3)
			l.latEnd = append(l.latEnd, t1)
			if p.tr != nil && len(l.latUS)%harnessSpanStep == 0 {
				p.tr.add("server.IngestBatch", p.root, uint64(sent), m.unix(t0), m.unix(t1))
			}
		}
	}
	m.end(l)
	// Ingest has stopped for good before Close: a post after Close
	// panics (ROADMAP P0(b)).
	tearDown(p, l, sys)
	if encErr != nil {
		return fmt.Errorf("encode ingest frame: %w", encErr)
	}
	if measTicks == 0 {
		return nil
	}
	l.attempted = int64(measTicks) * ingestPerTick
	l.opsPerS = l.windowRate()
	l.parts["server.udp_admit_ns_per_frame"] = median(l.latUS) * 1e3 / ingestFrames
	if l.issued != sent {
		l.failed += sent - l.issued
		l.violate("sent %d frames, server minted %d", sent, l.issued)
	}
	if s := l.snap; s != nil && (s.UDPRejected != 0 || s.UDPDropped != 0) {
		l.violate("udp rejected %d, dropped %d", s.UDPRejected, s.UDPDropped)
	}
	return nil
}
