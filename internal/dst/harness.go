package dst

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
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
	// Bug injects the deliberate duplicate-mint defect into the backend —
	// the canary proving the invariant checker catches real bugs. A Bug
	// run is expected to produce violations.
	Bug bool
	// SettleRounds overrides the quiescence-detection window (0 = default).
	SettleRounds int
	// MaxSteps bounds the scheduler (0 = default 50000); exceeding it is
	// reported as a violation rather than hanging.
	MaxSteps int
	// Backend substitutes a pre-compiled counting network for the default
	// bitonic one — cmd/countd plumbs its -net/-w selection through here.
	// Its fan-in must match the scenario width.
	Backend *runtime.Network
	// Flight turns on end-to-end request tracing inside the simulation:
	// every worker samples all of its requests (each worker its own actor
	// namespace) into one shared flight recorder the server also records
	// into. The run then audits the span trees — on clean runs every
	// sampled operation must leave its complete stage trail with monotone
	// simulated timestamps and no orphans — and Result.Flight carries the
	// canonical black-box dump (same seed ⇒ byte-identical bytes).
	Flight bool
}

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

// Result is one simulation run's full outcome: the scenario, every
// operation, the invariant violations (empty = pass) and the replayable
// trace (same seed ⇒ byte-identical bytes).
type Result struct {
	Seed       uint64
	Scenario   Scenario
	Ops        []OpRecord
	Violations []string
	Trace      []byte
	Flight     []byte // canonical flight-recorder dump (RunOptions.Flight)
	Issued     int64
	Delivered  int
	Steps      int

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

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Run executes one seed: expand the scenario, build the world, run the
// real client/server stack to completion under the deterministic
// scheduler, then check every protocol invariant.
func Run(seed uint64, opts RunOptions) (*Result, error) {
	return RunScenario(GenScenario(seed), opts)
}

// RunScenario executes an explicit scenario (tests hand-build these to
// target one failure mode); Run is RunScenario over GenScenario(seed).
func RunScenario(sc Scenario, opts RunOptions) (*Result, error) {
	seed := sc.Seed
	res := &Result{Seed: seed, Scenario: sc}

	w := NewWorld(seed, sc.JitterMin, sc.JitterMax, sc.Partitions, opts.SettleRounds)
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 50000
	}

	inner := opts.Backend
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
		bug:    opts.Bug,
	}

	var faults wire.FrameFaults
	if sc.faultsActive() {
		plan := &chaos.FaultPlan{
			Seed:         int64(seed%((1<<62)-1)) + 1,
			NetDropProb:  sc.DropProb,
			NetDupProb:   sc.DupProb,
			NetDelayProb: sc.DelayProb,
			NetDelayMin:  sc.DelayMin,
			NetDelayMax:  sc.DelayMax,
		}
		faults = gridFaults{inner: plan.Frames()}
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
		st = server.NewStats(sc.Shards)
	}
	srv := server.New(be, server.Options{
		Mailbox:   sc.Mailbox,
		Shards:    sc.Shards,
		OpTimeout: sc.SrvOpTimeout,
		Faults:    faults,
		Clock:     w.Clk,
		Flight:    w.flight,
		Stats:     st,
	})
	const addr = "sim"
	ln := w.Listen(addr)
	go srv.Serve(ln)

	// Workers: one client per worker — client-internal state (request ids,
	// the SC combiner, the backoff rng) then only ever sees one
	// goroutine, so its behaviour is a pure function of simulated time.
	recs := make([][]OpRecord, sc.Workers)
	var remaining atomic.Int64
	remaining.Store(int64(sc.Workers))
	for wk := 0; wk < sc.Workers; wk++ {
		recs[wk] = make([]OpRecord, len(sc.Plans[wk]))
		go w.runWorker(wk, &sc, recs[wk], &remaining)
	}

	// The UDP injector is one more planned actor: it drives the datagram
	// plan through the server's real admission path on the simulated
	// clock and counts toward phase-1 completion like any worker.
	if sc.UDPActive() {
		remaining.Add(1)
		go w.runUDPInjector(&sc, srv, &remaining)
	}

	// Phase 1: drive the world until every worker has finished. Each step
	// performs exactly one wake-up — the earliest transport delivery or,
	// when no delivery precedes it, the earliest timer (net-before-timer
	// on ties) — then waits for quiescence.
	stuck := 0
	for remaining.Load() > 0 {
		w.Settle()
		if remaining.Load() <= 0 {
			break
		}
		if !w.step() {
			if stuck++; stuck > 40 {
				res.Violations = append(res.Violations,
					fmt.Sprintf("deadlock: %d workers stuck with no pending event or timer", remaining.Load()))
				break
			}
			continue
		}
		stuck = 0
		if res.Steps++; res.Steps > maxSteps {
			res.Violations = append(res.Violations, fmt.Sprintf("runaway: exceeded %d scheduler steps", maxSteps))
			break
		}
	}

	// Phase 2: graceful drain. Close stops accepting, lets readers finish
	// their current frame, sweeps the mailboxes and flushes every pending
	// response; the scheduler keeps delivering until the world is empty.
	w.note("C %d\n", w.Clk.Now().Sub(clock.SimEpoch).Nanoseconds())
	closeDone := make(chan struct{})
	go func() { _ = srv.Close(); close(closeDone) }()
	stuck = 0
	for len(res.Violations) == 0 {
		w.Settle()
		if w.step() {
			stuck = 0
			if res.Steps++; res.Steps > maxSteps {
				res.Violations = append(res.Violations, fmt.Sprintf("runaway: exceeded %d scheduler steps", maxSteps))
			}
			continue
		}
		select {
		case <-closeDone:
		default:
			if stuck++; stuck > 40 {
				res.Violations = append(res.Violations, "drain: server Close stuck with no pending event or timer")
			}
			continue
		}
		break
	}

	res.Issued = srv.Issued()
	if st != nil {
		snap := st.Snapshot()
		res.UDPAccepted = snap.UDPDatagrams
		res.UDPReplays = snap.UDPRejects["replay"]
		res.UDPDropped = snap.UDPDropped
		res.UDPBadSegs = snap.UDPRejects["bad_segment"]
	}
	for _, rs := range recs {
		res.Ops = append(res.Ops, rs...)
	}
	checkInvariants(res, w)
	if w.flight != nil {
		checkFlight(res, w.flight)
		res.Flight = flightDump(w.flight)
	}
	res.Trace = buildTrace(res, w)
	return res, nil
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

// runWorker is one worker's life: stagger in, dial (with bounded
// re-dial attempts — connects are refused during partitions), run the
// planned operations with think time between them, close the client.
func (w *World) runWorker(wk int, sc *Scenario, out []OpRecord, remaining *atomic.Int64) {
	defer remaining.Add(-1)
	for i, op := range sc.Plans[wk] {
		out[i] = OpRecord{Worker: wk, Index: i, Kind: op.Kind, Mode: op.Mode, Wire: op.Wire, K: op.K, Err: "unstarted"}
	}
	w.Clk.Sleep(time.Duration(wk+1)*100*time.Microsecond + time.Duration(wk*1009)*time.Nanosecond)

	// With tracing on, every request is sampled (every=1) and each worker
	// owns actor namespace wk+1 — disjoint from the other workers and
	// from the server's minting namespace — so trace ids are
	// deterministic and collision-free across the run.
	traceSample := 0
	if w.flight != nil {
		traceSample = 1
	}
	var cl *client.Client
	var err error
	for attempt := 0; attempt < 6; attempt++ {
		cl, err = client.Dial("sim", client.Options{
			Conns:          1,
			Retries:        sc.Retries,
			OpTimeout:      sc.OpTimeout,
			DialTimeout:    sc.DialTimeout,
			AdaptiveWindow: sc.AdaptiveWindow,
			Clock:          w.Clk,
			Dialer:         w.Dialer(wk),
			Flight:         w.flight,
			TraceSample:    traceSample,
			TraceActor:     uint64(wk) + 1,
			Backoff: &fault.Backoff{
				Base:  sc.BackoffBase,
				Cap:   sc.BackoffCap,
				Seed:  int64(wk) + 1,
				Clock: w.Clk,
			},
		})
		if err == nil {
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

	for i, op := range sc.Plans[wk] {
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
func (w *World) runUDPInjector(sc *Scenario, srv *server.Server, remaining *atomic.Int64) {
	defer remaining.Add(-1)
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

// expand renders the values the run's successful increments delivered
// in the consistency checkers' form: one consistency.Op per value, every
// value of a batch carrying the batch's worker, op index and simulated
// enter/exit stamps. linOnly keeps the LIN operations only.
func expand(ops []OpRecord, linOnly bool) []consistency.Op {
	var out []consistency.Op
	for _, op := range ops {
		if op.Kind == OpRead || (linOnly && op.Mode != wire.ModeLIN) {
			continue
		}
		for _, v := range op.Vals {
			out = append(out, consistency.Op{
				Process: op.Worker, Index: op.Index, Value: v,
				EnterSeq: op.Start.Nanoseconds(), ExitSeq: op.End.Nanoseconds(),
			})
		}
	}
	return out
}

// auditOps runs the audits both flavors share, each through its one
// implementation, and returns the delivered values with the violations
// found:
//
//   - burn, never mint: no value is handed to two callers
//     (consistency.Duplicate);
//   - F_nl = 0, the whole point of the LIN mode: no LIN increment
//     returns a value below one that a LIN increment which had already
//     ended (simulated real time, any worker, any node) returned
//     (consistency.NonLinearizable);
//   - errors: none on a clean run, only whitelisted categories otherwise;
//   - drain: after Close nothing is still parked on the virtual clock.
func auditOps(ops []OpRecord, w *World, adversity, cluster bool) (vals []int64, violations []string) {
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	incs := expand(ops, false)
	if a, b, dup := consistency.Duplicate(incs); dup {
		fail("duplicate value %d delivered to w%d/op%d and w%d/op%d",
			incs[a].Value, incs[a].Process, incs[a].Index, incs[b].Process, incs[b].Index)
	}
	lins := expand(ops, true)
	for i, bad := range consistency.NonLinearizable(lins) {
		if bad {
			l := lins[i]
			fail("LIN non-linearizable: w%d/op%d (val %d, started %d) returned below a value whose op had already ended",
				l.Process, l.Index, l.Value, l.EnterSeq)
			break
		}
	}
	for _, op := range ops {
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
	vals = make([]int64, len(incs))
	for i, op := range incs {
		vals[i] = op.Value
	}
	return vals, violations
}

// checkInvariants audits one finished run. Violations are appended to
// res.Violations; an empty list is a pass.
func checkInvariants(res *Result, w *World) {
	sc := &res.Scenario
	adversity := !sc.CleanRun()
	hasUDP := sc.UDPActive()

	vals, violations := auditOps(res.Ops, w, adversity, false)
	res.Violations = append(res.Violations, violations...)
	res.Delivered = len(vals)

	// Clean runs deliver exactly [0, issued): nothing lost, nothing
	// minted — and therefore satisfy the step property at quiescence
	// (output wire j handed out j, j+w, ...). With burns (retries, drops)
	// a wire falls behind by the number of burned values, so there only
	// the bound holds: no caller sees a value the server never issued.
	// UDP scenarios mint fire-and-forget values no caller ever sees, so
	// they too keep the bound and leave the rest to the reconciliation
	// below.
	switch {
	case adversity || hasUDP:
		for _, v := range vals {
			if v < 0 || v >= res.Issued {
				res.Violations = append(res.Violations,
					fmt.Sprintf("value %d outside issued range [0,%d)", v, res.Issued))
			}
		}
	case int64(len(vals)) != res.Issued:
		res.Violations = append(res.Violations,
			fmt.Sprintf("clean run delivered %d values, issued %d", len(vals), res.Issued))
	default:
		if err := runtime.Verify(vals); err != nil {
			res.Violations = append(res.Violations, "clean run: "+err.Error())
		} else if err := network.CheckStepSequence(network.SinkCountsOf(vals, sc.Width)); err != nil {
			res.Violations = append(res.Violations, err.Error())
		}
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

// buildTrace assembles the canonical replayable trace: scenario header,
// the scheduler's delivery/timer log, the per-op outcome log, footer.
// Every byte derives from the seed, so equal seeds produce equal traces.
func buildTrace(res *Result, w *World) []byte {
	var b strings.Builder
	b.WriteString(res.Scenario.Header())
	b.WriteString(w.trace.String())
	ops := append([]OpRecord(nil), res.Ops...)
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Worker != ops[j].Worker {
			return ops[i].Worker < ops[j].Worker
		}
		return ops[i].Index < ops[j].Index
	})
	for _, op := range ops {
		mode := "sc"
		if op.Mode == wire.ModeLIN {
			mode = "lin"
		}
		fmt.Fprintf(&b, "O w%d i%d %s %s wire=%d k=%d s=%d e=%d err=%q vals=",
			op.Worker, op.Index, op.Kind, mode, op.Wire, op.K,
			op.Start.Nanoseconds(), op.End.Nanoseconds(), op.Err)
		for vi, v := range op.Vals {
			if vi > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	if res.Scenario.UDPActive() {
		fmt.Fprintf(&b, "# udp accepted=%d replays=%d dropped=%d badsegs=%d expected=%d\n",
			res.UDPAccepted, res.UDPReplays, res.UDPDropped, res.UDPBadSegs, res.Scenario.UDPExpected())
	}
	fmt.Fprintf(&b, "# issued=%d delivered=%d steps=%d violations=%d\n",
		res.Issued, res.Delivered, res.Steps, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "V %s\n", v)
	}
	return []byte(b.String())
}
