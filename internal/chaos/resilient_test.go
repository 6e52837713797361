package chaos

import (
	"context"
	"errors"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/runtime"
)

// scriptedPrimary is a CtxCounter whose per-call behaviour is scripted:
// each entry is either a value (err nil) or an error.
type scriptedPrimary struct {
	mu     sync.Mutex
	script []func() (int64, error)
	calls  int
}

func (s *scriptedPrimary) IncCtx(context.Context, int) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.calls >= len(s.script) {
		return 0, fault.ErrClosed
	}
	f := s.script[s.calls]
	s.calls++
	return f()
}

func (s *scriptedPrimary) Inc(wire int) int64 {
	v, err := s.IncCtx(context.Background(), wire)
	if err != nil {
		return -1
	}
	return v
}

func value(v int64) func() (int64, error) { return func() (int64, error) { return v, nil } }
func timeout() func() (int64, error)      { return func() (int64, error) { return 0, fault.ErrTimeout } }

// TestRetryRidesOutTransientStall: two timeouts below the FailAfter
// threshold are retried and the increment still lands on the primary.
func TestRetryRidesOutTransientStall(t *testing.T) {
	p := &scriptedPrimary{script: []func() (int64, error){timeout(), timeout(), value(7)}}
	rc := NewResilientCounter(p, new(runtime.AtomicCounter), ResilientOptions{
		Timeout:     time.Millisecond,
		MaxRetries:  3,
		FailAfter:   5,
		BackoffBase: 10 * time.Microsecond,
		BackoffCap:  50 * time.Microsecond,
	})
	v, err := rc.IncCtx(context.Background(), 0)
	if err != nil || v != 7 {
		t.Fatalf("IncCtx = %d, %v; want 7, nil", v, err)
	}
	if rc.FailedOver() {
		t.Error("transient stall escalated to failover")
	}
	if got := rc.strikes.Load(); got != 0 {
		t.Errorf("strikes = %d after success, want 0", got)
	}
}

// TestFailAfterTriggersFailover: FailAfter consecutive timeouts retire the
// primary; the backup takes over at maxSeen+1.
func TestFailAfterTriggersFailover(t *testing.T) {
	p := &scriptedPrimary{script: []func() (int64, error){
		value(3), timeout(), timeout(), timeout(), timeout(),
	}}
	rc := NewResilientCounter(p, new(runtime.AtomicCounter), ResilientOptions{
		Timeout:     time.Millisecond,
		MaxRetries:  10,
		FailAfter:   3,
		BackoffBase: 10 * time.Microsecond,
		BackoffCap:  50 * time.Microsecond,
	})
	if v, err := rc.IncCtx(context.Background(), 0); err != nil || v != 3 {
		t.Fatalf("first IncCtx = %d, %v; want 3, nil", v, err)
	}
	v, err := rc.IncCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("failover IncCtx errored: %v", err)
	}
	if !rc.FailedOver() {
		t.Fatal("three consecutive timeouts did not fail over")
	}
	if base := rc.Base(); base != 4 {
		t.Errorf("handoff base = %d, want maxSeen+1 = 4", base)
	}
	if v != 4 {
		t.Errorf("first backup value = %d, want 4", v)
	}
}

// TestLatePrimaryValueDiscarded: a primary value surfacing after the
// handoff fails its commit and must never be handed out — the reserved
// range already covers it.
func TestLatePrimaryValueDiscarded(t *testing.T) {
	rc := NewResilientCounter(&scriptedPrimary{}, new(runtime.AtomicCounter), ResilientOptions{})
	if !rc.commit(10) {
		t.Fatal("commit before failover refused")
	}
	rc.failOver()
	if rc.commit(11) {
		t.Error("commit after failover accepted: value 11 could duplicate a backup id")
	}
	if base := rc.Base(); base != 11 {
		t.Errorf("base = %d, want 11", base)
	}
}

// TestClosedPrimaryFailsOverImmediately: ErrClosed is not transient; the
// first attempt already fails over and the caller is served by the backup.
func TestClosedPrimaryFailsOverImmediately(t *testing.T) {
	p := &scriptedPrimary{} // empty script: every call returns ErrClosed
	rc := NewResilientCounter(p, new(runtime.AtomicCounter), ResilientOptions{Timeout: time.Millisecond})
	v, err := rc.IncCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("IncCtx errored: %v", err)
	}
	if v != 0 {
		t.Errorf("backup value = %d, want 0 (nothing ever served by primary)", v)
	}
	if !rc.FailedOver() {
		t.Error("ErrClosed did not fail over")
	}
}

// TestCallerDeadlineWins: the caller's own expired context surfaces as
// ErrTimeout instead of being retried away. On the simulated clock the
// race is exact: backoffs are jittered into [0.5ms, 1ms], so the fourth
// attempt — the one that would find the primary closed and fail over —
// cannot start before 1.5ms, and the caller's deadline at 1.25ms always
// fires first, while the counter waits out a backoff or runs an attempt.
func TestCallerDeadlineWins(t *testing.T) {
	clk := clock.NewSim()
	p := &scriptedPrimary{script: []func() (int64, error){timeout(), timeout(), timeout()}}
	rc := NewResilientCounter(p, new(runtime.AtomicCounter), ResilientOptions{
		Timeout:     time.Millisecond,
		MaxRetries:  50,
		FailAfter:   100,
		BackoffBase: time.Millisecond,
		BackoffCap:  time.Millisecond,
		Clock:       clk,
	})
	const deadline = 1250 * time.Microsecond
	ctx, cancel := clk.WithTimeout(context.Background(), deadline)
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := rc.IncCtx(ctx, 0)
		errc <- err
	}()
	// Fire virtual timers in deadline order up to the caller's deadline,
	// which is armed before the call starts, so no backoff past it fires
	// first; past it the call must return without more time passing.
	var err error
	for done := false; !done; {
		select {
		case err = <-errc:
			done = true
		default:
			if clk.Since(clock.SimEpoch) < deadline {
				clk.FireNext()
			}
			stdruntime.Gosched()
		}
	}
	if !errors.Is(err, fault.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if got := clk.Since(clock.SimEpoch); got != deadline {
		t.Errorf("returned at %v of simulated time, want the caller's deadline %v", got, deadline)
	}
	if rc.FailedOver() {
		t.Error("caller deadline should not by itself retire the primary")
	}
}

// TestBackoffBoundedAndJittered: retry delays grow exponentially, stay
// within [base/2, cap], and are not all identical.
func TestBackoffBoundedAndJittered(t *testing.T) {
	rc := NewResilientCounter(&scriptedPrimary{}, new(runtime.AtomicCounter), ResilientOptions{
		BackoffBase: time.Millisecond,
		BackoffCap:  8 * time.Millisecond,
	})
	seen := map[time.Duration]bool{}
	for attempt := 0; attempt < 10; attempt++ {
		for i := 0; i < 5; i++ {
			d := rc.backoff(attempt)
			if d < rc.opt.BackoffBase/2 || d > rc.opt.BackoffCap {
				t.Fatalf("backoff(%d) = %v outside [%v/2, %v]",
					attempt, d, rc.opt.BackoffBase, rc.opt.BackoffCap)
			}
			seen[d] = true
		}
	}
	if len(seen) < 2 {
		t.Error("backoff shows no jitter")
	}
}

// TestConcurrentFailoverNoDuplicates: many goroutines race increments
// through a primary that dies mid-run; the union of everything handed out
// must be duplicate-free.
func TestConcurrentFailoverNoDuplicates(t *testing.T) {
	// Script: 200 good values, then nothing but timeouts.
	var script []func() (int64, error)
	for v := int64(0); v < 200; v++ {
		script = append(script, value(v))
	}
	for i := 0; i < 64; i++ {
		script = append(script, timeout())
	}
	p := &scriptedPrimary{script: script}
	rc := NewResilientCounter(p, new(runtime.AtomicCounter), ResilientOptions{
		Timeout:     time.Millisecond,
		MaxRetries:  2,
		FailAfter:   3,
		BackoffBase: 10 * time.Microsecond,
		BackoffCap:  100 * time.Microsecond,
	})
	const workers, per = 8, 50
	var mu sync.Mutex
	seen := map[int64]int{}
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				v := rc.Inc(id)
				mu.Lock()
				seen[v]++
				mu.Unlock()
			}
		}(id)
	}
	wg.Wait()
	if len(seen) != workers*per {
		t.Fatalf("handed out %d distinct values for %d increments", len(seen), workers*per)
	}
	for v, c := range seen {
		if c > 1 {
			t.Fatalf("value %d handed out %d times", v, c)
		}
	}
	if !rc.FailedOver() {
		t.Error("primary exhaustion did not fail over")
	}
}
