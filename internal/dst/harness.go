package dst

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/consistency"
	"repro/internal/construct"
	"repro/internal/fault"
	"repro/internal/flightrec"
	"repro/internal/network"
	"repro/internal/packetio"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/wire"
)

// RunOptions tunes one simulation run.
type RunOptions struct {
	// backend substitutes a pre-compiled counting network for the
	// default bitonic one, so a test can run any network kind countd
	// serves. Its fan-in must match the scenario width.
	backend *runtime.Network
	// Flight turns on end-to-end request tracing inside the simulation:
	// every worker samples all of its requests (each worker its own actor
	// namespace) into one shared flight recorder the server also records
	// into. The run then audits the span trees — on clean runs every
	// sampled operation must leave its complete stage trail with monotone
	// simulated timestamps and no orphans — and Result.Flight carries the
	// canonical black-box dump (same seed ⇒ byte-identical bytes).
	Flight bool
}

// Scheduler step bounds: exceeding one is reported as a violation
// (runaway, formatted with the bound) rather than hanging. A cluster
// universe takes more steps — gossip and elections run beside the
// workload.
const (
	maxSteps        = 50000
	maxClusterSteps = 200000
	runawayText     = "runaway: exceeded %d scheduler steps"
)

// OpRecord is one completed workload operation with its simulated-time
// span and outcome.
type OpRecord struct {
	Worker, Index int
	Kind          OpKind
	Mode          wire.Mode
	Wire, K       int
	Start, End    time.Duration // offsets from clock.SimEpoch
	Vals          []int64       // values delivered to the caller
	Err           string        // classified error category, "" = success
}

// Outcome is what a run reports in either flavor: every operation, the
// invariant violations (empty = pass), the replayable trace (same seed ⇒
// byte-identical bytes) and the run's accounting.
type Outcome struct {
	Seed       uint64
	Ops        []OpRecord
	Violations []string
	Trace      []byte
	Flight     []byte // canonical flight-recorder dump (RunOptions.Flight)
	Issued     int64
	Delivered  int
	Steps      int
	// Audit is consistency.Audit's report over the delivered values,
	// with what the flavor counts but does not enforce.
	Audit consistency.Report
}

// Failed reports whether any invariant was violated.
func (o *Outcome) Failed() bool { return len(o.Violations) > 0 }

// Result is one single-server run's full outcome: the shared Outcome
// plus the scenario it expanded.
type Result struct {
	Outcome
	Scenario Scenario

	// UDP ingest accounting (udp flavor only), from the server's stats
	// sink: admission units accepted (datagrams plus super segments),
	// retransmits rejected by the replay window, aggregated posts shed
	// at the mailbox (in datagrams), and segments rejected by the strict
	// segmented framing check (truncated tails, mis-strided carves).
	UDPAccepted uint64
	UDPReplays  uint64
	UDPDropped  uint64
	UDPBadSegs  uint64
}

// Run executes one seed: expand the scenario, build the world, run the
// real client/server stack to completion under the deterministic
// scheduler, then check every protocol invariant.
func Run(seed uint64, opts RunOptions) (*Result, error) {
	return RunScenario(GenScenario(seed), opts)
}

// RunScenario executes an explicit scenario (tests hand-build these to
// target one failure mode); Run is RunScenario over GenScenario(seed).
// The single-server flavor boots one server, dials it with one
// *client.Client per worker, and audits with checkInvariants.
func RunScenario(sc Scenario, opts RunOptions) (*Result, error) {
	seed := sc.Seed
	res := &Result{Outcome: Outcome{Seed: seed}, Scenario: sc}
	w := NewWorld(seed, sc.JitterMin, sc.JitterMax, sc.Partitions)

	inner := opts.backend
	if inner == nil {
		spec, _, err := construct.Bitonic(sc.Width)
		if err != nil {
			return nil, fmt.Errorf("dst: construct: %w", err)
		}
		inner, err = runtime.Compile(spec)
		if err != nil {
			return nil, fmt.Errorf("dst: compile: %w", err)
		}
	} else if inner.Width() != sc.Width {
		return nil, fmt.Errorf("dst: backend width %d != scenario width %d", inner.Width(), sc.Width)
	}
	be := &simBackend{
		inner:  inner,
		clk:    w.Clk,
		seed:   seed,
		latMin: sc.BackendLatMin,
		latMax: sc.BackendLatMax,
	}

	// One shared recorder for both sides of the wire: client and server
	// spans land in the same rings, stamped from the same virtual clock,
	// so the dump is one merged timeline. Capacity is sized far past any
	// scenario's span count — a dropped span would hole the trees.
	if opts.Flight {
		w.flight = flightrec.New(1 << 14)
	}
	// UDP scenarios need the server's stats sink: the invariant checker
	// reconciles issued values against the admission counters (accepted,
	// replay-rejected, shed). Non-UDP scenarios keep it nil so their
	// traces stay byte-identical with earlier builds.
	var st *server.Stats
	if sc.UDPActive() {
		st = server.NewStats(0)
	}
	srv := server.New(be, server.Options{
		Mailbox:   sc.Mailbox,
		OpTimeout: sc.SrvOpTimeout,
		Faults:    newNetFaults(&sc),
		Clock:     w.Clk,
		Flight:    w.flight,
		Stats:     st,
	})
	const addr = "sim"
	ln := w.Listen(addr)
	go srv.Serve(ln)

	// With tracing on, every request is sampled (every=1) and each worker
	// owns actor namespace wk+1 — disjoint from the other workers and
	// from the server's minting namespace — so trace ids are
	// deterministic and collision-free across the run.
	traceSample := 0
	if w.flight != nil {
		traceSample = 1
	}
	dial := func(wk int) (simClient, error) {
		return client.Dial(addr, client.Options{
			Conns:       1,
			Retries:     sc.Retries,
			OpTimeout:   sc.OpTimeout,
			DialTimeout: sc.DialTimeout,
			Clock:       w.Clk,
			Dialer:      w.Dialer(wk),
			Flight:      w.flight,
			TraceSample: traceSample,
			TraceActor:  uint64(wk) + 1,
			Backoff: &fault.Backoff{
				Base:  sc.BackoffBase,
				Cap:   sc.BackoffCap,
				Seed:  int64(wk) + 1,
				Clock: w.Clk,
			},
		})
	}
	// The UDP injector is one more planned actor: it drives the datagram
	// plan through the server's real admission path on the simulated
	// clock and counts toward the workload's completion like any worker.
	var udp func()
	if sc.UDPActive() {
		udp = func() { w.runUDPInjector(&sc, srv) }
	}
	s := &sim{w: w, out: &res.Outcome, maxSteps: maxSteps}
	s.workload(sc.Plans, 100*time.Microsecond, dial, udp, "workers")
	// Graceful drain: Close stops accepting, lets readers finish their
	// current frame, sweeps the mailboxes and flushes every pending
	// response.
	s.drain(func() { _ = srv.Close() }, "server Close")

	res.Issued = srv.Issued()
	if st != nil {
		snap := st.Snapshot()
		res.UDPAccepted = snap.UDPDatagrams
		res.UDPReplays = snap.UDPRejects["replay"]
		res.UDPDropped = snap.UDPDropped
		res.UDPBadSegs = snap.UDPRejects["bad_segment"]
	}
	checkInvariants(res, w, inner.SinkCounts())
	if w.flight != nil {
		checkFlight(res, w.flight)
		res.Flight = flightDump(w.flight)
	}
	res.Trace = buildTrace(res, w)
	return res, nil
}

// sim is one run in progress, whichever flavor: its world, its step
// bound, and the outcome the phases fill in.
type sim struct {
	w        *World
	out      *Outcome
	maxSteps int
}

func (s *sim) fail(format string, args ...any) {
	s.out.Violations = append(s.out.Violations, fmt.Sprintf(format, args...))
}

// drive steps the world until done reports true. Each step performs
// exactly one wake-up — the earliest transport delivery or, when no
// delivery precedes it, the earliest timer (net-before-timer on ties) —
// then waits for quiescence. A world with nothing to wake gets patience
// more settles (a woken goroutine may not have re-armed yet) before
// stuck() is reported; more than maxSteps wake-ups is reported with
// the runaway text, formatted with the bound.
func (s *sim) drive(done func() bool, patience int, stuck func() string, runaway string) {
	idle := 0
	for {
		s.w.Settle()
		if done() {
			return
		}
		if !s.w.step() {
			if idle++; idle > patience {
				s.fail("%s", stuck())
				return
			}
			continue
		}
		idle = 0
		if s.out.Steps++; s.out.Steps > s.maxSteps {
			s.fail(runaway, s.maxSteps)
			return
		}
	}
}

// workload runs every worker's plan — each worker staggered in by
// stagger and dialing through dial — plus the flavor's own planned
// actor (nil: none), until all of them have finished; who names the
// actors in the deadlock violation. The workers' records become the
// outcome's ops.
func (s *sim) workload(plans [][]opSpec, stagger time.Duration, dial func(wk int) (simClient, error), actor func(), who string) {
	recs := make([][]OpRecord, len(plans))
	var remaining atomic.Int64
	remaining.Store(int64(len(plans)))
	for wk := range plans {
		recs[wk] = make([]OpRecord, len(plans[wk]))
		go func() {
			defer remaining.Add(-1)
			s.w.runWorker(wk, plans[wk], stagger, dial, recs[wk])
		}()
	}
	if actor != nil {
		remaining.Add(1)
		go func() {
			defer remaining.Add(-1)
			actor()
		}()
	}
	s.drive(func() bool { return remaining.Load() <= 0 }, 40,
		func() string {
			return fmt.Sprintf("deadlock: %d %s stuck with no pending event or timer", remaining.Load(), who)
		},
		runawayText)
	for _, rs := range recs {
		s.out.Ops = append(s.out.Ops, rs...)
	}
}

// drain shuts the universe down gracefully — shutdown runs on a
// goroutine of its own — and keeps delivering until shutdown has
// returned and the world is empty; what names the shutdown in the stuck
// violation. A run that already failed is not drained.
func (s *sim) drain(shutdown func(), what string) {
	s.w.note("C %d\n", s.w.Clk.Now().Sub(clock.SimEpoch).Nanoseconds())
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		shutdown()
	}()
	if s.out.Failed() {
		return
	}
	s.drive(func() bool {
		select {
		case <-closed:
			return s.w.idle()
		default:
			return false
		}
	}, 40, func() string { return "drain: " + what + " stuck with no pending event or timer" },
		runawayText)
}

// step performs one scheduler wake-up: the earliest pending transport
// delivery, or the earliest timer when no delivery precedes it
// (net-before-timer on exact ties — a fixed policy, so replays agree).
// Reports false when the world is empty.
func (w *World) step() bool {
	evAt, evOk := w.peekEvent()
	twAt, twOk := w.Clk.NextWake()
	switch {
	case evOk && (!twOk || !twAt.Before(evAt)):
		w.deliverNext()
		return true
	case twOk:
		return w.fireNextTimer()
	default:
		return false
	}
}

// idle reports whether the world has nothing left to wake.
func (w *World) idle() bool {
	_, evOk := w.peekEvent()
	_, twOk := w.Clk.NextWake()
	return !evOk && !twOk
}

// simClient is what a worker drives: both *client.Client and the
// failover-aware *client.Cluster.
type simClient interface {
	IncMode(ctx context.Context, w int, mode wire.Mode) (int64, error)
	IncBatchCtx(ctx context.Context, w, k int, mode wire.Mode) ([]runtime.Range, error)
	Read(ctx context.Context) (int64, error)
	Close() error
}

// runWorker is one worker's life: stagger in, dial (with bounded
// re-dial attempts — connects are refused during partitions), run the
// planned operations with think time between them, close the client.
// Each worker owns its client, so client-internal state (request ids,
// the combiner, the backoff rng) only ever sees one goroutine and its
// behaviour is a pure function of simulated time.
func (w *World) runWorker(wk int, plan []opSpec, stagger time.Duration, dial func(wk int) (simClient, error), out []OpRecord) {
	for i, op := range plan {
		out[i] = OpRecord{Worker: wk, Index: i, Kind: op.Kind, Mode: op.Mode, Wire: op.Wire, K: op.K, Err: "unstarted"}
	}
	w.Clk.Sleep(time.Duration(wk+1)*stagger + time.Duration(wk*1009)*time.Nanosecond)

	var cl simClient
	var err error
	for attempt := 0; attempt < 6; attempt++ {
		if cl, err = dial(wk); err == nil {
			break
		}
		w.Clk.Sleep(time.Duration(attempt+1)*4*time.Millisecond + time.Duration(wk*1009)*time.Nanosecond)
	}
	if err != nil {
		for i := range out {
			out[i].Err = "dial:" + classify(err)
		}
		return
	}
	defer cl.Close()

	for i, op := range plan {
		w.Clk.Sleep(op.Think)
		rec := &out[i]
		rec.Start = w.Clk.Now().Sub(clock.SimEpoch)
		switch op.Kind {
		case OpInc:
			v, err := cl.IncMode(context.Background(), op.Wire, op.Mode)
			if err == nil {
				rec.Vals = []int64{v}
			}
			rec.Err = classify(err)
		case OpBatch:
			rs, err := cl.IncBatchCtx(context.Background(), op.Wire, op.K, op.Mode)
			if err == nil {
				for _, r := range rs {
					for off := int64(0); off < r.Count; off++ {
						rec.Vals = append(rec.Vals, r.First+off*r.Stride)
					}
				}
			}
			rec.Err = classify(err)
		case OpRead:
			v, err := cl.Read(context.Background())
			if err == nil {
				rec.Vals = []int64{v}
			}
			rec.Err = classify(err)
		}
		rec.End = w.Clk.Now().Sub(clock.SimEpoch)
	}
}

// runUDPInjector replays the scenario's datagram plan through the
// server's real UDP admission path — prefix filter, CRC decode, replay
// window, aggregated post — with no kernel sockets in the way: frames
// are encoded into a packetio ring slot and handed to the server's
// PacketIngest exactly as an ingest loop would. One datagram per batch,
// so each post lands at its planned simulated time. Segmented supers
// take the same door through a GRO-sized slot: the payload is packed
// back-to-back with its declared stride recorded via AppendSegments,
// exactly as a coalescing kernel would deliver it — truncated tails
// and skewed strides included.
func (w *World) runUDPInjector(sc *Scenario, srv *server.Server) {
	pi := srv.NewPacketIngest()
	b := packetio.NewBatch(1)
	gb := packetio.NewBatchSized(1, packetio.GROSlotSize)
	// One hoisted closure for every super: AppendSegments copies whatever
	// payload/stride currently hold, so the injector allocates nothing
	// per datagram.
	var payload []byte
	var stride int
	pack := func(dst []byte) ([]byte, int) { return append(dst, payload...), stride }

	di, si := 0, 0
	for di < len(sc.UDP) || si < len(sc.UDPSupers) {
		useSuper := di >= len(sc.UDP) ||
			(si < len(sc.UDPSupers) && sc.UDPSupers[si].At < sc.UDP[di].At)
		var at time.Duration
		if useSuper {
			at = sc.UDPSupers[si].At
		} else {
			at = sc.UDP[di].At
		}
		if dt := clock.SimEpoch.Add(at).Sub(w.Clk.Now()); dt > 0 {
			w.Clk.Sleep(dt)
		}
		if !useSuper {
			d := sc.UDP[di]
			di++
			f := wire.Frame{Type: wire.TInc, ID: d.ID, Wire: int64(d.Wire)}
			if d.K > 1 {
				f.Type, f.K = wire.TIncBatch, d.K
			}
			b.Reset()
			b.AppendWith(func(dst []byte) []byte {
				enc, err := wire.AppendFrame(dst, &f)
				if err != nil {
					return dst // plan frames always encode; an empty packet would be rejected downstream
				}
				return enc
			})
			pi.IngestBatch(b)
			continue
		}
		u := &sc.UDPSupers[si]
		si++
		if len(u.Frames) == 0 {
			continue
		}
		payload, stride = payload[:0], 0
		for fi := range u.Frames {
			f := u.Frames[fi].frame()
			enc, err := wire.AppendFrame(payload, &f)
			if err != nil {
				continue // plan frames always encode
			}
			if fi == 0 {
				stride = len(enc)
			}
			payload = enc
		}
		if u.Trunc > 0 {
			cut := u.Trunc
			if cut > stride-1 {
				cut = stride - 1
			}
			payload = payload[:len(payload)-cut]
		}
		stride += u.Skew
		gb.Reset()
		gb.AppendSegments(pack)
		pi.IngestBatch(gb)
	}
}

// classify folds an operation error into its stable category for the
// trace and the error-whitelist invariant.
func classify(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, wire.ErrBackpressure):
		return "backpressure"
	case errors.Is(err, fault.ErrTimeout):
		return "timeout"
	case errors.Is(err, client.ErrClosed) || errors.Is(err, fault.ErrClosed):
		return "closed"
	case errors.Is(err, wire.ErrNotLeader):
		return "not_leader"
	case errors.Is(err, wire.ErrNoRange):
		return "no_range"
	case strings.Contains(err.Error(), "connection refused"),
		strings.Contains(err.Error(), "connection failed"):
		return "transport"
	default:
		return "other:" + err.Error()
	}
}

// allowedErr reports whether an error category may appear in a scenario
// that injects adversity; the cluster refusals (leadership gaps, range
// droughts) only in a cluster run. "other:*" is never allowed.
func allowedErr(cat string, cluster bool) bool {
	switch strings.TrimPrefix(cat, "dial:") {
	case "backpressure", "timeout", "transport":
		return true
	case "not_leader", "no_range":
		return cluster
	}
	return false
}

// auditOps runs the audits both flavors share and returns the delivered
// values with the violations found. consistency.Audit gets one record per
// increment, its worker as the process and its simulated start and end as
// the stamps, and its report is kept in out.Audit:
//
//   - burn, never mint: no value is handed to two callers, and none lies
//     outside [0, issued);
//   - F_nl = 0, the whole point of the LIN mode: no LIN increment
//     returns a value below one that a LIN increment which had already
//     ended (simulated real time, any worker, any node) returned;
//   - session order: no increment returns a value below one its worker
//     was already handed, in either mode. The cluster keeps it for LIN
//     increments only (each LIN sweep is a fresh grant from the leader's
//     frontier), so there a LIN break fails and an SC break is counted in
//     out.Audit only (ROADMAP item 1);
//   - errors: none on a clean run, only whitelisted categories otherwise;
//   - drain: after Close nothing is still parked on the virtual clock.
func auditOps(out *Outcome, w *World, adversity, cluster bool, issued int64) (vals []int64, violations []string) {
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	var recs []consistency.Record
	for _, op := range out.Ops {
		if op.Kind != OpRead {
			recs = append(recs, consistency.Record{Process: op.Worker, Index: op.Index, LIN: op.Mode == wire.ModeLIN,
				Values: op.Vals, Invoke: op.Start.Nanoseconds(), Respond: op.End.Nanoseconds()})
		}
	}
	rep := consistency.Audit(recs, issued)
	out.Audit = rep
	if rep.Duplicates > 0 {
		a, b := recs[rep.Dup[0]], recs[rep.Dup[1]]
		fail("duplicate value %d delivered to w%d/op%d and w%d/op%d",
			rep.DupValue, a.Process, a.Index, b.Process, b.Index)
	}
	if rep.OutOfRange > 0 {
		fail("value %d outside issued range [0,%d), %d in all", rep.Stray, issued, rep.OutOfRange)
	}
	if rep.LIN.NonLin > 0 {
		l := recs[rep.Late]
		fail("LIN non-linearizable: w%d/op%d (val %d, started %d) returned below a value whose op had already ended",
			l.Process, l.Index, slices.Min(l.Values), l.Invoke)
	}
	if n := rep.SessionBreaks(); n > 0 && !cluster {
		b := recs[rep.Behind]
		fail("session order: w%d/op%d (val %d) returned below a value w%d had already been handed, %d such ops",
			b.Process, b.Index, slices.Min(b.Values), b.Process, n)
	}
	if cluster && rep.LIN.NonSC > 0 {
		fail("LIN session order: %d LIN ops returned below a value their worker had already been handed", rep.LIN.NonSC)
	}
	for _, op := range out.Ops {
		switch {
		case op.Err == "":
		case !adversity:
			fail("error %q on clean run at w%d/op%d", op.Err, op.Worker, op.Index)
		case !allowedErr(op.Err, cluster):
			fail("unexpected error category %q at w%d/op%d", op.Err, op.Worker, op.Index)
		}
	}
	if n := w.Clk.Sleepers(); n != 0 {
		fail("drain left %d goroutines parked on the simulated clock", n)
	}
	for _, r := range recs {
		vals = append(vals, r.Values...)
	}
	return vals, violations
}

// checkInvariants audits one finished run, given how many values each of
// the network's output counters handed out. Violations are appended to
// res.Violations; an empty list is a pass.
func checkInvariants(res *Result, w *World, sinks []int64) {
	sc := &res.Scenario
	adversity := !sc.CleanRun()
	hasUDP := sc.UDPActive()

	vals, violations := auditOps(&res.Outcome, w, adversity, false, res.Issued)
	res.Violations = append(res.Violations, violations...)
	res.Delivered = len(vals)

	// Every run keeps values inside [0, issued) (auditOps): no caller sees
	// a value the server never issued. Clean runs deliver exactly that
	// range, nothing lost, nothing minted. Burns (retries, drops) and
	// UDP's fire-and-forget values, which no caller sees, leave only the
	// bound, and the reconciliation below.
	if !adversity && !hasUDP && int64(len(vals)) != res.Issued {
		res.Violations = append(res.Violations,
			fmt.Sprintf("clean run delivered %d values, issued %d", len(vals), res.Issued))
	}
	// The network is quiescent after the drain, so its own output counts
	// satisfy the step property on every run, whatever became of the
	// values after they left it.
	if err := network.CheckStepSequence(sinks); err != nil {
		res.Violations = append(res.Violations, err.Error())
	}

	// UDP reconciliation — the burn-never-mint contract end to end. Every
	// unique datagram was admitted, every planned retransmit was rejected
	// by the replay window, and the issued counter accounts for exactly
	// the TCP-delivered values plus the plan's unique increments: one
	// value more would mean a replay minted, one less a unique datagram
	// silently lost. When the mailbox shed an aggregated post the exact
	// equality degrades to an upper bound (shed values are burned, never
	// minted).
	if hasUDP {
		expected := sc.UDPExpected()
		if uniq := sc.UDPAdmitted(); res.UDPAccepted != uniq {
			res.Violations = append(res.Violations,
				fmt.Sprintf("udp: %d admission units accepted, plan has %d unique intact", res.UDPAccepted, uniq))
		}
		if res.UDPReplays != uint64(sc.UDPReplays()) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("udp: replay window rejected %d retransmits, plan injected %d", res.UDPReplays, sc.UDPReplays()))
		}
		if res.UDPBadSegs != uint64(sc.UDPBadSegs()) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("udp: %d segments rejected as bad_segment, plan damages %d", res.UDPBadSegs, sc.UDPBadSegs()))
		}
		switch {
		case res.UDPDropped == 0 && res.Issued != int64(res.Delivered)+expected:
			res.Violations = append(res.Violations,
				fmt.Sprintf("udp: issued %d != delivered %d + udp-minted %d", res.Issued, res.Delivered, expected))
		case res.Issued > int64(res.Delivered)+expected:
			res.Violations = append(res.Violations,
				fmt.Sprintf("udp: issued %d exceeds delivered %d + udp plan %d — a replay minted", res.Issued, res.Delivered, expected))
		}
	}

	// Reads are monotone per worker (a worker's reads are sequential, and
	// the issued count never decreases) and bounded by the final count.
	lastRead := make(map[int]int64)
	for _, op := range res.Ops {
		if op.Kind != OpRead || op.Err != "" || len(op.Vals) == 0 {
			continue
		}
		v := op.Vals[0]
		if v < 0 || v > res.Issued {
			res.Violations = append(res.Violations,
				fmt.Sprintf("read %d outside [0,%d] at w%d/op%d", v, res.Issued, op.Worker, op.Index))
		}
		if prev, ok := lastRead[op.Worker]; ok && v < prev {
			res.Violations = append(res.Violations,
				fmt.Sprintf("read went backward on w%d: %d after %d", op.Worker, v, prev))
		}
		lastRead[op.Worker] = v
	}

	// Retry/backoff budget: with a per-attempt timeout every operation is
	// bounded by (Retries+1) attempts plus the backoff between them.
	if sc.OpTimeout > 0 {
		budget := time.Duration(sc.Retries+1)*(sc.OpTimeout+sc.BackoffCap+5*grid) + 2*time.Millisecond
		for _, op := range res.Ops {
			if op.Err == "unstarted" || strings.HasPrefix(op.Err, "dial:") {
				continue
			}
			if d := op.End - op.Start; d > budget {
				res.Violations = append(res.Violations,
					fmt.Sprintf("op budget exceeded at w%d/op%d: took %d ns, budget %d ns", op.Worker, op.Index, d.Nanoseconds(), budget.Nanoseconds()))
			}
		}
	}
}

// buildTrace assembles the single-server trace: the shared body, then
// the UDP admission accounting and the footer.
func buildTrace(res *Result, w *World) []byte {
	return traceOf(res.Scenario.Header(), w, &res.Outcome, func(b *strings.Builder) {
		if res.Scenario.UDPActive() {
			fmt.Fprintf(b, "# udp accepted=%d replays=%d dropped=%d badsegs=%d expected=%d\n",
				res.UDPAccepted, res.UDPReplays, res.UDPDropped, res.UDPBadSegs, res.Scenario.UDPExpected())
		}
		fmt.Fprintf(b, "# issued=%d delivered=%d steps=%d violations=%d\n",
			res.Issued, res.Delivered, res.Steps, len(res.Violations))
	})
}

// traceOf assembles a canonical replayable trace in either flavor:
// scenario header, the scheduler's delivery/timer log, the per-op
// outcome log in (worker, index) order, the flavor's accounting, then
// one V line per violation. Every byte derives from the seed, so equal
// seeds produce equal traces.
func traceOf(header string, w *World, out *Outcome, accounting func(*strings.Builder)) []byte {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString(w.trace.String())
	ops := append([]OpRecord(nil), out.Ops...)
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Worker != ops[j].Worker {
			return ops[i].Worker < ops[j].Worker
		}
		return ops[i].Index < ops[j].Index
	})
	for _, op := range ops {
		fmt.Fprintf(&b, "O w%d i%d %s %s wire=%d k=%d s=%d e=%d err=%q vals=",
			op.Worker, op.Index, op.Kind, modeName(op.Mode), op.Wire, op.K,
			op.Start.Nanoseconds(), op.End.Nanoseconds(), op.Err)
		for vi, v := range op.Vals {
			if vi > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	accounting(&b)
	for _, v := range out.Violations {
		fmt.Fprintf(&b, "V %s\n", v)
	}
	return []byte(b.String())
}
