package dst

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/construct"
	"repro/internal/fault"
	"repro/internal/runtime"
	"repro/internal/server"
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

// TestResilientCounterFailsOverUnderPartition runs chaos.ResilientCounter
// over the real networked client inside the simulation: the transport is
// black-holed mid-run, attempts strike out, and the counter must (a)
// surface a timeout once MaxRetries is exhausted while the primary is
// still considered alive, and (b) fail over to its backup range once
// FailAfter strikes accumulate — without ever duplicating a value.
func TestResilientCounterFailsOverUnderPartition(t *testing.T) {
	const seed = 99
	w := NewWorld(seed, 10*time.Microsecond, 60*time.Microsecond,
		[]Partition{{Start: 3 * time.Millisecond, End: 100 * time.Second}})

	spec, _, err := construct.Bitonic(4)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := runtime.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(inner, server.Options{Clock: w.Clk})
	ln := w.Listen("sim")
	go srv.Serve(ln)

	type outcome struct {
		preVals  []int64
		exhErr   error
		postVals []int64
		postErrs []error
		failed   bool
		base     int64
	}
	var out outcome
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		w.Clk.Sleep(100 * time.Microsecond)
		cl, err := client.Dial("sim", client.Options{
			Conns:       1,
			Mode:        wire.ModeLIN, // direct path: attempt ctx honoured per request
			Retries:     1,
			OpTimeout:   time.Millisecond,
			DialTimeout: 10 * time.Millisecond,
			Clock:       w.Clk,
			Dialer:      w.Dialer(0),
			Backoff:     &fault.Backoff{Base: 200 * time.Microsecond, Cap: 500 * time.Microsecond, Seed: 1, Clock: w.Clk},
		})
		if err != nil {
			out.exhErr = err
			return
		}
		defer cl.Close()

		// rc lives through the whole run: it commits primary values while
		// the transport is healthy, so its failover base must fence off
		// everything it ever handed out.
		rc := chaos.NewResilientCounter(cl, new(runtime.AtomicCounter), chaos.ResilientOptions{
			Timeout: 3 * time.Millisecond, MaxRetries: 2, FailAfter: 2,
			BackoffBase: 200 * time.Microsecond, BackoffCap: 500 * time.Microsecond,
			Clock: w.Clk,
		})
		for i := 0; i < 3; i++ {
			if v, err := rc.IncCtx(context.Background(), i); err == nil {
				out.preVals = append(out.preVals, v)
			}
			w.Clk.Sleep(200*time.Microsecond + time.Duration(i)*time.Microsecond)
		}
		// Past the partition start: a counter whose FailAfter is too high
		// to trip must surface retry-budget exhaustion as an error — not
		// hang, not fail over.
		exhaust := chaos.NewResilientCounter(cl, new(runtime.AtomicCounter), chaos.ResilientOptions{
			Timeout: 3 * time.Millisecond, MaxRetries: 1, FailAfter: 1 << 30,
			BackoffBase: 200 * time.Microsecond, BackoffCap: 500 * time.Microsecond,
			Clock: w.Clk,
		})
		w.Clk.Sleep(4 * time.Millisecond)
		_, out.exhErr = exhaust.IncCtx(context.Background(), 0)

		// Black-holed: rc's attempts strike out, it fails over, and keeps
		// serving from the backup's reserved range.
		for i := 0; i < 6; i++ {
			v, err := rc.IncCtx(context.Background(), i)
			if err != nil {
				out.postErrs = append(out.postErrs, err)
				continue
			}
			out.postVals = append(out.postVals, v)
		}
		out.failed = rc.FailedOver()
		out.base = rc.Base()
	}()

	steps, stuck := 0, 0
	for !done.Load() {
		w.Settle()
		if done.Load() {
			break
		}
		if !w.step() {
			if stuck++; stuck > 40 {
				t.Fatal("simulation deadlocked")
			}
			continue
		}
		stuck = 0
		if steps++; steps > 50000 {
			t.Fatal("runaway simulation")
		}
	}
	closeDone := make(chan struct{})
	go func() { _ = srv.Close(); close(closeDone) }()
	for {
		w.Settle()
		if w.step() {
			continue
		}
		select {
		case <-closeDone:
		default:
			if stuck++; stuck > 40 {
				t.Fatal("drain stuck")
			}
			continue
		}
		break
	}

	if out.exhErr == nil || !errors.Is(out.exhErr, fault.ErrTimeout) {
		t.Errorf("retry-budget exhaustion: want ErrTimeout, got %v", out.exhErr)
	}
	if !out.failed {
		t.Fatalf("counter never failed over; post values %v, errors %v", out.postVals, out.postErrs)
	}
	if len(out.postVals) == 0 {
		t.Fatal("no values served from the backup after failover")
	}
	seen := map[int64]bool{}
	for _, v := range append(append([]int64(nil), out.preVals...), out.postVals...) {
		if seen[v] {
			t.Fatalf("duplicate value %d across failover (pre %v, post %v, base %d)", v, out.preVals, out.postVals, out.base)
		}
		seen[v] = true
	}
	for _, v := range out.postVals {
		if v < out.base {
			t.Errorf("backup served %d below its reserved base %d", v, out.base)
		}
	}
	if n := w.Clk.Sleepers(); n != 0 {
		t.Errorf("%d goroutines left parked on the sim clock", n)
	}
}
