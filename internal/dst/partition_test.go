package dst

import (
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// blackHoleScenario builds a hand-crafted scenario whose transport is
// black-holed from 2ms until far past the end of the run: every op
// issued after the cut must exhaust its retry budget and surface a
// timeout, never hang.
func blackHoleScenario() Scenario {
	sc := Scenario{
		Seed:        7777,
		Flavor:      "partition",
		Width:       4,
		Workers:     3,
		Mailbox:     64,
		Retries:     2,
		OpTimeout:   2 * time.Millisecond,
		DialTimeout: 20 * time.Millisecond,
		BackoffBase: 300 * time.Microsecond,
		BackoffCap:  time.Millisecond,
		JitterMin:   10 * time.Microsecond,
		JitterMax:   80 * time.Microsecond,
		Partitions:  []Partition{{Start: 2 * time.Millisecond, End: 10 * time.Second}},
	}
	for w := 0; w < sc.Workers; w++ {
		var plan []opSpec
		for i := 0; i < 4; i++ {
			op := opSpec{Kind: OpInc, Mode: wire.ModeSC, Wire: w % sc.Width,
				Think: time.Millisecond + time.Duration(w*1009+i*13)*time.Nanosecond}
			if i%2 == 1 {
				op.Kind, op.K = OpBatch, 3
			}
			plan = append(plan, op)
		}
		sc.Plans = append(sc.Plans, plan)
	}
	return sc
}

// TestRetryBudgetExhaustionUnderBlackHole drives the real client retry
// loop into exhaustion: with the transport black-holed mid-run, every
// attempt times out, the budget invariant bounds each op's duration,
// and the failures surface as clean timeout errors — no hangs, no
// duplicate values, no stray error categories.
func TestRetryBudgetExhaustionUnderBlackHole(t *testing.T) {
	res, err := RunScenario(blackHoleScenario(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("violations:\n  %s\ntrace:\n%s", strings.Join(res.Violations, "\n  "), res.Trace)
	}
	timeouts := 0
	for _, op := range res.Ops {
		if op.Err == "timeout" {
			timeouts++
			// Exhaustion, not a single expiry: the op's span must cover
			// more than one attempt's timeout.
			if d := op.End - op.Start; d < 2*res.Scenario.OpTimeout {
				t.Errorf("w%d/op%d timed out after %v — retries never ran", op.Worker, op.Index, d)
			}
		}
	}
	if timeouts == 0 {
		t.Fatalf("no op exhausted its retry budget under a black-holed transport; ops: %+v", res.Ops)
	}
	t.Logf("%d/%d ops exhausted their retry budget", timeouts, len(res.Ops))
}

// pressureScenario: five eager workers against a one-slot mailbox and a
// multi-millisecond backend — the shard must shed with ErrBackpressure.
func pressureScenario() Scenario {
	sc := Scenario{
		Seed:          4242,
		Flavor:        "pressure",
		Width:         2,
		Workers:       5,
		Mailbox:       1,
		Retries:       3,
		OpTimeout:     25 * time.Millisecond,
		DialTimeout:   20 * time.Millisecond,
		BackoffBase:   200 * time.Microsecond,
		BackoffCap:    2 * time.Millisecond,
		JitterMin:     5 * time.Microsecond,
		JitterMax:     40 * time.Microsecond,
		BackendLatMin: 2 * time.Millisecond,
		BackendLatMax: 3 * time.Millisecond,
	}
	for w := 0; w < sc.Workers; w++ {
		var plan []opSpec
		for i := 0; i < 3; i++ {
			plan = append(plan, opSpec{Kind: OpInc, Mode: wire.ModeSC, Wire: w % sc.Width,
				Think: 60*time.Microsecond + time.Duration(w*1009+i*13)*time.Nanosecond})
		}
		sc.Plans = append(sc.Plans, plan)
	}
	return sc
}

// TestBackpressureShedUnderFullMailbox drives the ErrBackpressure path:
// a full combining mailbox must shed instead of queueing, the client
// must retry the shed, and the run must still audit clean.
func TestBackpressureShedUnderFullMailbox(t *testing.T) {
	res, err := RunScenario(pressureScenario(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("violations:\n  %s\ntrace:\n%s", strings.Join(res.Violations, "\n  "), res.Trace)
	}
	shed := false
	for _, op := range res.Ops {
		if op.Err == "backpressure" {
			shed = true
		}
	}
	// Shedding surfaces to the caller only when retries also exhaust;
	// otherwise it is absorbed by the retry loop. Either way the server
	// must have shed at least once for this workload.
	if !shed && res.Delivered == 0 {
		t.Fatal("pressure scenario delivered nothing and shed nothing")
	}
	t.Logf("delivered=%d issued=%d shed-surfaced=%v", res.Delivered, res.Issued, shed)
}
