package chaos

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/construct"
	"repro/internal/msgnet"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// scenario is one reproducible chaos run: a fault plan plus the workload
// shape that drives a network through it.
type scenario struct {
	name string
	// plan fills in a fresh FaultPlan (plans carry per-run stream state,
	// so each run needs its own).
	plan func(*FaultPlan)
	// deadline, when positive, bounds every increment; timed-out
	// increments are counted, not retried, and their abandoned tokens burn
	// values — so only uniqueness is asserted for such a run.
	deadline time.Duration
	// msgnetOnly skips the shared-memory run for plans whose faults have
	// no shared-memory analogue.
	msgnetOnly bool
}

const (
	scenarioWorkers = 8   // one per input wire of B(8)
	scenarioOps     = 150 // per worker
	scenarioBuffer  = 2   // msgnet wire channel size
)

// scenarios is the standard catalogue: one scenario per fault class plus a
// benign control and an everything-at-once mix, durations scaled by scale.
func scenarios(scale time.Duration) []scenario {
	return []scenario{
		{name: "baseline", plan: func(*FaultPlan) {}},
		{name: "stall", plan: func(p *FaultPlan) {
			p.StallProb, p.StallMin, p.StallMax = 0.05, scale/5, 2*scale
		}},
		{name: "latency", msgnetOnly: true, plan: func(p *FaultPlan) {
			p.LatencyProb, p.LatencyMin, p.LatencyMax = 0.3, scale/10, scale
		}},
		{name: "duplicate", msgnetOnly: true, plan: func(p *FaultPlan) {
			p.DuplicateProb, p.RedeliverAfter = 0.2, scale/5
		}},
		{name: "crash-restart", msgnetOnly: true, plan: func(p *FaultPlan) {
			p.Crashes = []CrashSpec{
				{Balancer: 0, AtStep: 40, Restart: 2 * scale},
				{Balancer: 1, AtStep: 90, Restart: 4 * scale},
				{Balancer: 0, AtStep: 200, Restart: 2 * scale},
			}
		}},
		{name: "counter-pause", msgnetOnly: true, plan: func(p *FaultPlan) {
			p.PauseProb, p.PauseMin, p.PauseMax = 0.1, scale/5, scale
		}},
		{name: "mixed", msgnetOnly: true, plan: func(p *FaultPlan) {
			p.StallProb, p.StallMin, p.StallMax = 0.03, scale/5, scale
			p.LatencyProb, p.LatencyMin, p.LatencyMax = 0.2, scale/10, scale/2
			p.DuplicateProb, p.RedeliverAfter = 0.1, scale/5
			p.PauseProb, p.PauseMin, p.PauseMax = 0.05, scale/5, scale/2
			p.Crashes = []CrashSpec{{Balancer: 2, AtStep: 60, Restart: 2 * scale}}
		}},
		{name: "deadline", deadline: 5 * scale, plan: func(p *FaultPlan) {
			p.StallProb, p.StallMin, p.StallMax = 0.02, 2*scale, 10*scale
		}},
	}
}

// deadlined adapts a context-aware increment to the stock workload driver
// (runtime.Workload): every Inc is bounded by deadline when it is
// positive, and one that fails — timed out, never retried — returns -1.
type deadlined struct {
	inc      func(ctx context.Context, wire int) (int64, error)
	deadline time.Duration
}

func (d deadlined) Inc(wire int) int64 {
	ctx := context.Background()
	if d.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.deadline)
		defer cancel()
	}
	v, err := d.inc(ctx, wire)
	if err != nil {
		return -1
	}
	return v
}

// drive runs workers × opsPer increments through c, worker i on wire i,
// and splits the completed operations from the count of failed ones.
func drive(workers, opsPer int, c deadlined) (ops []runtime.Op, failed int) {
	for _, op := range (runtime.Workload{Workers: workers, OpsPerWorker: opsPer}).Run(c) {
		if op.Value < 0 {
			failed++
		} else {
			ops = append(ops, op)
		}
	}
	return ops, failed
}

// audit checks the guarantees that must survive a chaos run of a width-w
// network, each through the repository's one implementation of it:
// duplicates are never excusable (consistency.Duplicate); when every
// increment completed the values are exactly 0..N-1 (runtime.Verify) and
// the per-sink exit counts form a step sequence at quiescence
// (network.CheckStepSequence). Abandoned tokens burn values, so an
// incomplete run is held to uniqueness only.
func audit(ops []runtime.Op, w int, complete bool) error {
	if a, b, dup := consistency.Duplicate(runtime.Audit(ops)); dup {
		return fmt.Errorf("duplicate value %d handed to workers %d and %d", ops[a].Value, ops[a].Worker, ops[b].Worker)
	}
	if !complete {
		return nil
	}
	vals := runtime.Values(ops)
	if err := runtime.Verify(vals); err != nil {
		return err
	}
	return network.CheckStepSequence(network.SinkCountsOf(vals, w))
}

// TestScenarioCatalogue runs every standard scenario against B(8) on both
// substrates and asserts the surviving guarantees: counting property and
// quiescent step property under every non-crashing fault (and under warm
// crash-restart), uniqueness under deadline-driven abandonment.
func TestScenarioCatalogue(t *testing.T) {
	spec := construct.MustBitonic(8)
	const seed = 42
	for _, sc := range scenarios(200 * time.Microsecond) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			check := func(substrate string, inc func(context.Context, int) (int64, error), col *telemetry.Collector) {
				ops, timedOut := drive(scenarioWorkers, scenarioOps, deadlined{inc, sc.deadline})
				snap := col.Snapshot()
				t.Logf("%s: ops=%d timeout=%d %s", substrate, len(ops), timedOut, consistency.Measure(runtime.Audit(ops)))
				if err := audit(ops, spec.FanOut(), timedOut == 0); err != nil {
					t.Errorf("%s: %v", substrate, err)
				}
				if len(ops)+timedOut != scenarioWorkers*scenarioOps {
					t.Errorf("%s: %d completed + %d timed out != %d issued",
						substrate, len(ops), timedOut, scenarioWorkers*scenarioOps)
				}
				// Every fault run carries its telemetry: completed tokens
				// and their latency are accounted for exactly.
				if snap.Tokens != uint64(len(ops)) {
					t.Errorf("%s: telemetry tokens %d != completed %d", substrate, snap.Tokens, len(ops))
				}
				if snap.Latency.Count != uint64(len(ops)) {
					t.Errorf("%s: latency count %d != completed %d", substrate, snap.Latency.Count, len(ops))
				}
				if len(ops) > 0 && snap.TotalToggles() < uint64(len(ops))*uint64(spec.Depth()) {
					t.Errorf("%s: %d toggles for %d completed tokens (depth %d)",
						substrate, snap.TotalToggles(), len(ops), spec.Depth())
				}
			}
			newPlan := func() *FaultPlan {
				p := &FaultPlan{Seed: seed}
				sc.plan(p)
				return p
			}

			col := telemetry.NewCollectorFor(spec)
			mn, err := msgnet.Start(spec, scenarioBuffer,
				msgnet.WithFaults(newPlan().Msgnet()), msgnet.WithObserver(col))
			if err != nil {
				t.Fatal(err)
			}
			defer mn.Close()
			check("msgnet", mn.IncCtx, col)
			if sc.msgnetOnly {
				return
			}

			rt, err := runtime.Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			rt.SetFaultHook(newPlan().RuntimeHook())
			col = telemetry.NewCollectorFor(spec)
			rt.SetObserver(col)
			check("runtime", rt.IncCtx, col)
		})
	}
}

// TestPlanDeterminism: two plans with identical fields must hand every
// actor the identical fault sequence, independent of scheduling — the
// whole point of seeding.
func TestPlanDeterminism(t *testing.T) {
	mk := func() *FaultPlan {
		return &FaultPlan{
			Seed:          7,
			StallProb:     0.3,
			StallMin:      time.Microsecond,
			StallMax:      time.Millisecond,
			LatencyProb:   0.5,
			LatencyMin:    time.Microsecond,
			LatencyMax:    time.Millisecond,
			PauseProb:     0.2,
			PauseMin:      time.Microsecond,
			PauseMax:      time.Millisecond,
			DuplicateProb: 0.4,
			Crashes:       []CrashSpec{{Balancer: 1, AtStep: 5, Restart: time.Millisecond}},
		}
	}
	a, b := mk().Msgnet(), mk().Msgnet()
	for step := 0; step < 200; step++ {
		for bal := 0; bal < 4; bal++ {
			if got, want := a.BalancerStep(bal, step), b.BalancerStep(bal, step); got != want {
				t.Fatalf("balancer %d step %d: %+v vs %+v", bal, step, got, want)
			}
			if got, want := a.WireDelay(bal, 0, step), b.WireDelay(bal, 0, step); got != want {
				t.Fatalf("wire %d step %d: %v vs %v", bal, step, got, want)
			}
		}
		for j := 0; j < 4; j++ {
			if got, want := a.CounterStep(j, step), b.CounterStep(j, step); got != want {
				t.Fatalf("counter %d step %d: %+v vs %+v", j, step, got, want)
			}
		}
	}
	// Distinct seeds must give distinct schedules.
	c, d := mk(), mk()
	c.Seed = 8
	cf, df := c.Msgnet(), d.Msgnet()
	diff := false
	for step := 0; step < 200 && !diff; step++ {
		if cf.BalancerStep(0, step) != df.BalancerStep(0, step) {
			diff = true
		}
	}
	if !diff {
		t.Error("seed change did not change the fault schedule")
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
	plan := &FaultPlan{
		Seed: 1,
		Crashes: []CrashSpec{
			{Balancer: 0, AtStep: 3, Restart: 2 * time.Millisecond},
			{Balancer: 0, AtStep: 7, Restart: 2 * time.Millisecond},
		},
	}
	n, err := msgnet.Start(spec, 1, msgnet.WithFaults(plan.Msgnet()))
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

// TestFailover: the headline acceptance test — a msgnet primary that
// loses a balancer for longer than the run (a crash with an hour-long
// restart, a third of the way in) fails over to the backup, and no id is
// ever handed out twice across the id-range handoff.
func TestFailover(t *testing.T) {
	const workers, ops = 4, 80
	plan := &FaultPlan{
		Seed:    11,
		Crashes: []CrashSpec{{Balancer: 0, AtStep: workers * ops / 3, Restart: time.Hour}},
	}
	n, err := msgnet.Start(construct.MustBitonic(4), 1, msgnet.WithFaults(plan.Msgnet()))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rc := NewResilientCounter(n, new(runtime.AtomicCounter), ResilientOptions{
		Timeout:     5 * time.Millisecond,
		MaxRetries:  1,
		BackoffBase: 100 * time.Microsecond,
		BackoffCap:  time.Millisecond,
		FailAfter:   2,
	})

	got, errs := drive(workers, ops, deadlined{inc: rc.IncCtx})

	if !rc.FailedOver() {
		t.Fatal("failover never triggered")
	}
	if err := audit(got, 4, false); err != nil {
		t.Fatal(err)
	}
	primary, backup := 0, 0
	for _, op := range got {
		if op.Value >= rc.Base() {
			backup++
		} else {
			primary++
		}
	}
	if primary == 0 {
		t.Error("no increments served by the primary before the crash")
	}
	if backup == 0 {
		t.Error("no increments served by the backup after failover")
	}
	if rc.Base() <= 0 {
		t.Errorf("handoff base = %d, want positive", rc.Base())
	}
	if errs != 0 {
		t.Errorf("%d increments surfaced errors despite retry+failover", errs)
	}
}

// TestVerifyStep: the step check audit applies to a complete run — the
// per-sink exit counts recovered from the values form a step sequence.
func TestVerifyStep(t *testing.T) {
	step := func(vals ...int64) error {
		return network.CheckStepSequence(network.SinkCountsOf(vals, 4))
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
func opsOf(vals ...int64) []runtime.Op {
	ops := make([]runtime.Op, len(vals))
	for i, v := range vals {
		ops[i].Value = v
	}
	return ops
}
