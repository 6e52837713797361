package fault

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestBackoffBoundedAndJittered: delays grow exponentially from Base,
// never exceed Cap, never drop below Base/2 (equal jitter), and the same
// seed replays the same sequence.
func TestBackoffBoundedAndJittered(t *testing.T) {
	mk := func() *Backoff {
		return &Backoff{Base: time.Millisecond, Cap: 8 * time.Millisecond, Seed: 7}
	}
	a, b := mk(), mk()
	for attempt := 0; attempt < 10; attempt++ {
		da, db := a.Delay(attempt), b.Delay(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged (%v vs %v)", attempt, da, db)
		}
		if da < time.Millisecond/2 || da > 8*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside [Base/2, Cap]", attempt, da)
		}
	}
}

// TestBackoffZeroValue: the zero value is usable with sane defaults.
func TestBackoffZeroValue(t *testing.T) {
	var b Backoff
	d := b.Delay(0)
	if d <= 0 || d > 100*time.Millisecond {
		t.Fatalf("zero-value delay %v", d)
	}
}

// TestBackoffSleepHonoursContext: Sleep returns early with the converted
// context error. On the simulated clock the assertion is exact — the
// sleeper parks on the virtual timer, the context fires, and not one
// nanosecond of simulated time passes.
func TestBackoffSleepHonoursContext(t *testing.T) {
	clk := clock.NewSim()
	b := &Backoff{Base: time.Second, Cap: time.Second, Clock: clk}
	ctx, cancel := clk.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- b.Sleep(ctx, 3) }()
	// Both the backoff timer (1s) and the context deadline (1ms) are on
	// the virtual clock; the context deadline is armed synchronously by
	// WithTimeout, so firing the earliest wake-up expires the context.
	if _, ok := clk.FireNext(); !ok {
		t.Fatal("no virtual timer to fire")
	}
	if err := <-errc; err != ErrTimeout {
		t.Fatalf("Sleep under expired deadline: %v", err)
	}
	if got := clk.Since(clock.SimEpoch); got != time.Millisecond {
		t.Fatalf("context fired at %v, want exactly 1ms", got)
	}
}

// TestBackoffSleepCancelImmediate: a cancellation unblocks Sleep with no
// simulated time passing at all.
func TestBackoffSleepCancelImmediate(t *testing.T) {
	clk := clock.NewSim()
	b := &Backoff{Base: time.Second, Cap: time.Second, Clock: clk}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- b.Sleep(ctx, 3) }()
	// The backoff timer appearing on the virtual clock means the sleeper
	// reached its select — cancel from a known-parked state.
	for {
		if _, ok := clk.NextWake(); ok {
			break
		}
		runtime.Gosched()
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep under cancellation: %v", err)
	}
	if got := clk.Since(clock.SimEpoch); got != 0 {
		t.Fatalf("cancellation cost %v simulated time", got)
	}
}

// TestBackoffSleepExactJitteredDelay pins that Sleep sleeps exactly the
// jittered delay the rng produced — assertable only on a virtual clock,
// where elapsed time is read back with nanosecond precision.
func TestBackoffSleepExactJitteredDelay(t *testing.T) {
	clk := clock.NewSim()
	b := &Backoff{Base: time.Millisecond, Cap: 8 * time.Millisecond, Seed: 7, Clock: clk}
	// A twin with the same seed replays the same jitter sequence, which
	// is the expected duration of each simulated sleep.
	twin := &Backoff{Base: time.Millisecond, Cap: 8 * time.Millisecond, Seed: 7}
	for attempt := 0; attempt < 5; attempt++ {
		want := twin.Delay(attempt)
		start := clk.Now()
		errc := make(chan error, 1)
		go func() { errc <- b.Sleep(context.Background(), attempt) }()
		for {
			if _, ok := clk.NextWake(); ok {
				break
			}
			runtime.Gosched()
		}
		if _, ok := clk.FireNext(); !ok {
			t.Fatalf("attempt %d: no timer armed", attempt)
		}
		if err := <-errc; err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if got := clk.Now().Sub(start); got != want {
			t.Fatalf("attempt %d: slept %v of simulated time, want exactly %v", attempt, got, want)
		}
	}
}

// firedClock hands out timers that have already fired.
type firedClock struct{ clock.Clock }

type firedTimer chan time.Time

func (t firedTimer) C() <-chan time.Time    { return t }
func (firedTimer) Stop() bool               { return false }
func (firedTimer) Reset(time.Duration) bool { return false }
func (firedClock) NewTimer(time.Duration) clock.Timer {
	t := make(firedTimer, 1)
	t <- time.Time{}
	return t
}

// TestBackoffSleepEndedContextWins: when the context has ended and the
// backoff timer has fired too — a retry loop that waited to be scheduled
// — Sleep returns the context's error every time, never nil, so no retry
// goes out for a caller that has gone.
func TestBackoffSleepEndedContextWins(t *testing.T) {
	b := &Backoff{Clock: firedClock{clock.Real()}}
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	for i := 0; i < 100; i++ {
		if err := b.Sleep(expired, i); err != ErrTimeout {
			t.Fatalf("sleep %d under an expired deadline: %v, want ErrTimeout", i, err)
		}
		if err := b.Sleep(cancelled, i); !errors.Is(err, context.Canceled) {
			t.Fatalf("sleep %d under a cancelled context: %v, want context.Canceled", i, err)
		}
	}
}
