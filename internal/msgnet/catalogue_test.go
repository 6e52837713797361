package msgnet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/construct"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// span is one fault class: with probability prob an actor's step draws a
// duration uniform in [min, max].
type span struct {
	prob     float64
	min, max time.Duration
}

// crash schedules one warm crash-and-restart: balancer bal exits after
// its step-th token and is restarted restart later with its toggle.
type crash struct {
	bal, step int
	restart   time.Duration
}

// plan is the fault mix of one catalogue scenario.
type plan struct {
	stall   span // balancer steps
	latency span // forwarded tokens, delivered asynchronously (non-FIFO wires)
	pause   span // counter steps
	dup     span // counter answers, redelivered after the drawn delay
	crashes []crash
}

// seededFaults is the catalogue's Faults: every probabilistic decision
// comes from a per-(fault class, actor) stream seeded from seed, so the
// decisions each actor sees depend only on the plan, not on how the
// scheduler interleaves actors.
type seededFaults struct {
	plan
	seed int64

	mu   sync.Mutex
	rngs map[[2]int]*rand.Rand
}

func newSeededFaults(seed int64, p plan) *seededFaults {
	return &seededFaults{plan: p, seed: seed, rngs: make(map[[2]int]*rand.Rand)}
}

func (f *seededFaults) draw(class, actor int, s span) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := [2]int{class, actor}
	r, ok := f.rngs[k]
	if !ok {
		r = rand.New(rand.NewSource(f.seed + int64(class)<<20 + int64(actor)))
		f.rngs[k] = r
	}
	if s.prob == 0 || r.Float64() >= s.prob {
		return 0
	}
	return s.min + time.Duration(r.Int63n(int64(s.max-s.min)+1))
}

func (f *seededFaults) BalancerStep(b, step int) StepFault {
	var sf StepFault
	for _, c := range f.crashes {
		if c.bal == b && c.step == step {
			sf.Crash, sf.Restart = true, c.restart
		}
	}
	sf.Stall = f.draw(0, b, f.stall)
	return sf
}

func (f *seededFaults) WireDelay(b, _, _ int) time.Duration { return f.draw(1, b, f.latency) }

func (f *seededFaults) CounterStep(j, _ int) StepFault {
	sf := StepFault{Stall: f.draw(2, j, f.pause)}
	if d := f.draw(3, j, f.dup); d > 0 {
		sf.Redeliver, sf.RedeliverAfter = true, d
	}
	return sf
}

// scenario is one reproducible fault run: a plan plus the deadline that
// bounds every increment when positive. Timed-out increments are
// counted, not retried, and their abandoned tokens burn values, so only
// uniqueness is asserted for such a run.
type scenario struct {
	name     string
	plan     plan
	deadline time.Duration
}

const (
	scenarioWorkers = 8   // one per input wire of B(8)
	scenarioOps     = 150 // per worker
	scenarioBuffer  = 2   // wire channel size
)

// scenarios is the standard catalogue: one scenario per fault class plus a
// benign control and an everything-at-once mix, durations scaled by scale.
func scenarios(scale time.Duration) []scenario {
	return []scenario{
		{name: "baseline"},
		{name: "stall", plan: plan{stall: span{0.05, scale / 5, 2 * scale}}},
		{name: "latency", plan: plan{latency: span{0.3, scale / 10, scale}}},
		{name: "duplicate", plan: plan{dup: span{0.2, scale / 5, scale / 5}}},
		{name: "crash-restart", plan: plan{crashes: []crash{
			{bal: 0, step: 40, restart: 2 * scale},
			{bal: 1, step: 90, restart: 4 * scale},
			{bal: 0, step: 200, restart: 2 * scale},
		}}},
		{name: "counter-pause", plan: plan{pause: span{0.1, scale / 5, scale}}},
		{name: "mixed", plan: plan{
			stall:   span{0.03, scale / 5, scale},
			latency: span{0.2, scale / 10, scale / 2},
			dup:     span{0.1, scale / 5, scale / 5},
			pause:   span{0.05, scale / 5, scale / 2},
			crashes: []crash{{bal: 2, step: 60, restart: 2 * scale}},
		}},
		{name: "deadline", deadline: 5 * scale, plan: plan{stall: span{0.02, 2 * scale, 10 * scale}}},
	}
}

// deadlined adapts IncCtx to the stock workload driver (runtime.Workload):
// every Inc is bounded by deadline when it is positive, and one that
// fails — timed out, never retried — returns -1.
type deadlined struct {
	n        *Network
	deadline time.Duration
}

func (d deadlined) Inc(wire int) int64 {
	ctx := context.Background()
	if d.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.deadline)
		defer cancel()
	}
	v, err := d.n.IncCtx(ctx, wire)
	if err != nil {
		return -1
	}
	return v
}

// audit checks the guarantees that must survive a fault run of a width-w
// network, each through the repository's one implementation of it:
// duplicates are never excusable, and when every increment completed the
// values are exactly 0..N-1 (both consistency.Audit) and the per-sink
// exit counts form a step sequence at quiescence
// (network.CheckStepSequence). Abandoned tokens burn values, so an
// incomplete run is held to uniqueness only.
func audit(recs []consistency.Record, w int, complete bool) error {
	issued := int64(math.MaxInt64)
	if complete {
		issued = int64(len(recs))
	}
	r := consistency.Audit(recs, issued)
	if r.Duplicates > 0 {
		return fmt.Errorf("duplicate value %d handed to workers %d and %d", r.DupValue, recs[r.Dup[0]].Process, recs[r.Dup[1]].Process)
	}
	if !complete {
		return nil
	}
	if r.OutOfRange > 0 {
		return fmt.Errorf("value %d outside 0..%d", r.Stray, len(recs)-1)
	}
	vals := make([]int64, 0, len(recs))
	for _, rec := range recs {
		vals = append(vals, rec.Values...)
	}
	return network.CheckStepSequence(sinkCounts(vals, w))
}

// sinkCounts recovers the per-output-wire exit counts from the values a
// width-w counting network handed out: output wire j assigns j, j+w,
// j+2w, ..., so value v (non-negative) left on wire v mod w.
func sinkCounts(values []int64, w int) []int64 {
	counts := make([]int64, w)
	for _, v := range values {
		counts[v%int64(w)]++
	}
	return counts
}

// TestScenarioCatalogue runs every standard scenario against B(8) and
// asserts the surviving guarantees: counting property and quiescent step
// property under every non-crashing fault (and under warm crash-restart,
// where the dedup journal answers redelivered tokens idempotently),
// uniqueness under deadline-driven abandonment. The compiled network's
// halves of the stall and deadline rows are runtime's
// TestHookedConcurrentCounting and TestHookedDeadlineAbandonment.
func TestScenarioCatalogue(t *testing.T) {
	spec := construct.MustBitonic(8)
	for _, sc := range scenarios(200 * time.Microsecond) {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			col := telemetry.NewCollectorFor(spec)
			n, err := Start(spec, scenarioBuffer,
				WithFaults(newSeededFaults(42, sc.plan)), WithObserver(col))
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()

			var ops []consistency.Record
			timedOut := 0
			for _, op := range (runtime.Workload{Workers: scenarioWorkers, OpsPerWorker: scenarioOps}).Run(deadlined{n, sc.deadline}) {
				if op.Values[0] < 0 {
					timedOut++
				} else {
					ops = append(ops, op)
				}
			}
			snap := col.Snapshot()
			t.Logf("ops=%d timeout=%d %v", len(ops), timedOut, consistency.Audit(ops, math.MaxInt64).SC.Fractions())
			if err := audit(ops, spec.FanOut(), timedOut == 0); err != nil {
				t.Error(err)
			}
			if len(ops)+timedOut != scenarioWorkers*scenarioOps {
				t.Errorf("%d completed + %d timed out != %d issued", len(ops), timedOut, scenarioWorkers*scenarioOps)
			}
			// Every fault run carries its telemetry: completed tokens
			// and their latency are accounted for exactly.
			if snap.Tokens != uint64(len(ops)) {
				t.Errorf("telemetry tokens %d != completed %d", snap.Tokens, len(ops))
			}
			if snap.Latency.Count != uint64(len(ops)) {
				t.Errorf("latency count %d != completed %d", snap.Latency.Count, len(ops))
			}
			if len(ops) > 0 && snap.TotalToggles() < uint64(len(ops))*uint64(spec.Depth()) {
				t.Errorf("%d toggles for %d completed tokens (depth %d)", snap.TotalToggles(), len(ops), spec.Depth())
			}
		})
	}
}

// TestCrashRestartPreservesState: a warm restart resumes the round-robin
// toggle exactly where the crashed actor left off, so a sequential stream
// through a crashing balancer still counts 0, 1, 2, ...
func TestCrashRestartPreservesState(t *testing.T) {
	spec, _, err := construct.SingleBalancer(2)
	if err != nil {
		t.Fatal(err)
	}
	f := newSeededFaults(1, plan{crashes: []crash{
		{bal: 0, step: 3, restart: 2 * time.Millisecond},
		{bal: 0, step: 7, restart: 2 * time.Millisecond},
	}})
	n, err := Start(spec, 1, WithFaults(f))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for k := int64(0); k < 12; k++ {
		if v := n.Inc(int(k) % 2); v != k {
			t.Fatalf("token %d got %d: crash-restart lost balancer state", k, v)
		}
	}
}

// TestCloseDuringCrashDowntime: a balancer crashed with a restart far
// past the run is still down at Close. Close must not wait out the
// downtime, and a token stranded in the dead actor's inbox surfaces
// ErrClosed.
func TestCloseDuringCrashDowntime(t *testing.T) {
	spec, _, err := construct.SingleBalancer(2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Start(spec, 1, WithFaults(newSeededFaults(1, plan{crashes: []crash{
		{bal: 0, step: 0, restart: time.Hour},
	}})))
	if err != nil {
		t.Fatal(err)
	}
	if v := n.Inc(0); v != 0 {
		t.Fatalf("the crashing step's token got %d, want 0", v)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := n.IncCtx(context.Background(), 1)
		errc <- err
	}()
	closed := make(chan struct{})
	go func() {
		n.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited out the crashed balancer's downtime")
	}
	if err := <-errc; !errors.Is(err, fault.ErrClosed) {
		t.Errorf("stranded token: err = %v, want ErrClosed", err)
	}
}

// TestVerifyStep: the step check audit applies to a complete run — the
// per-sink exit counts recovered from the values form a step sequence.
func TestVerifyStep(t *testing.T) {
	step := func(vals ...int64) error {
		return network.CheckStepSequence(sinkCounts(vals, 4))
	}
	if err := step(0, 1, 4, 5, 2, 3); err != nil {
		t.Errorf("legal step sequence rejected: %v", err)
	}
	if err := step(0, 4, 8, 1); err == nil {
		t.Error("y_0=3, y_1=1 should violate the step property")
	}
	if err := audit(opsOf(0, 4, 8, 1), 4, true); err == nil {
		t.Error("a complete run with y_0=3, y_1=1 should be rejected")
	}
	if err := audit(nil, 4, true); err != nil {
		t.Errorf("empty run rejected: %v", err)
	}
}

// TestVerifyUnique: audit holds every run, complete or not, to uniqueness,
// and an incomplete one to nothing more.
func TestVerifyUnique(t *testing.T) {
	if err := audit(opsOf(5, 0, 9), 4, false); err != nil {
		t.Errorf("unique values with gaps rejected on an incomplete run: %v", err)
	}
	for _, complete := range []bool{false, true} {
		if err := audit(opsOf(2, 0, 2), 4, complete); err == nil {
			t.Errorf("duplicate not caught (complete=%v)", complete)
		}
	}
}

// opsOf wraps bare values as completed operations.
func opsOf(vals ...int64) []consistency.Record {
	ops := make([]consistency.Record, len(vals))
	for i, v := range vals {
		ops[i].Values = []int64{v}
	}
	return ops
}
