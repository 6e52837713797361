package runtime

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/construct"
	"repro/internal/fault"
)

// TestIncCtxMatchesInc: without hooks or deadlines, IncCtx is Inc.
func TestIncCtxMatchesInc(t *testing.T) {
	n := MustCompile(construct.MustBitonic(8))
	for k := int64(0); k < 40; k++ {
		v, err := n.IncCtx(context.Background(), int(k)%8)
		if err != nil {
			t.Fatal(err)
		}
		if v != k {
			t.Fatalf("token %d got %d", k, v)
		}
	}
}

// TestIncCtxExpiredBeforeEntry: an already-dead context never enters the
// network — no balancer toggles, no counter value burns.
func TestIncCtxExpiredBeforeEntry(t *testing.T) {
	n := MustCompile(construct.MustBitonic(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.IncCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := n.IncCtx(dctx, 0); !errors.Is(err, fault.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The aborted attempts consumed nothing: the next real increment
	// still gets value 0.
	if v := n.Inc(0); v != 0 {
		t.Fatalf("aborted IncCtx burned a value: next Inc = %d", v)
	}
}

// TestFaultHookFiresAndStalls: the hook sees every balancer on the path
// (depth hops per token) and a first-balancer stall turns a short deadline
// into a clean ErrTimeout with nothing toggled.
func TestFaultHookFiresAndStalls(t *testing.T) {
	spec := construct.MustBitonic(4)
	n := MustCompile(spec)
	var calls atomic.Int64
	n.SetFaultHook(func(ctx context.Context, bal int) { calls.Add(1) })
	n.Inc(0)
	if got, want := calls.Load(), int64(n.Depth()); got != want {
		t.Fatalf("hook fired %d times for one token, want depth %d", got, want)
	}

	// Now stall every balancer until the context dies.
	n.SetFaultHook(func(ctx context.Context, bal int) { <-ctx.Done() })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := n.IncCtx(ctx, 0); !errors.Is(err, fault.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	n.SetFaultHook(nil)
	// The timed-out token aborted before its first toggle, so the
	// sequential stream is undisturbed: values continue from 1.
	if v := n.Inc(0); v != 1 {
		t.Fatalf("timed-out IncCtx disturbed the network: next Inc = %d", v)
	}
}

// TestHookedConcurrentCounting: with a stalling hook installed, a full
// concurrent workload still satisfies the counting property.
func TestHookedConcurrentCounting(t *testing.T) {
	n := MustCompile(construct.MustBitonic(8))
	n.SetFaultHook(func(ctx context.Context, bal int) {
		if bal%3 == 0 {
			time.Sleep(10 * time.Microsecond)
		}
	})
	hammer(t, n, 8, 100)
}

// TestHookedDeadlineAbandonment: under seeded stalls that honour ctx and
// a deadline on every increment, a token either times out before its
// first toggle or completes, so deadline-driven abandonment never burns a
// value: the completed values still count 0..N-1 and the observer sees
// exactly the completed tokens exit.
func TestHookedDeadlineAbandonment(t *testing.T) {
	const workers, per = 8, 150
	n := MustCompile(construct.MustBitonic(8))
	obs := &countingObserver{}
	n.SetObserver(obs)
	var rngMu sync.Mutex
	rngs := make(map[int]*rand.Rand) // one stream per balancer
	n.SetFaultHook(func(ctx context.Context, bal int) {
		rngMu.Lock()
		r, ok := rngs[bal]
		if !ok {
			r = rand.New(rand.NewSource(42 + int64(bal)))
			rngs[bal] = r
		}
		hit := r.Float64() < 0.02
		d := 400*time.Microsecond + time.Duration(r.Int63n(int64(1600*time.Microsecond)+1))
		rngMu.Unlock()
		if !hit {
			return
		}
		stall := time.NewTimer(d)
		defer stall.Stop()
		select {
		case <-stall.C:
		case <-ctx.Done():
		}
	})

	var mu sync.Mutex
	var vals []int64
	timedOut := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				v, err := n.IncCtx(ctx, w)
				cancel()
				mu.Lock()
				if err != nil {
					if !errors.Is(err, fault.ErrTimeout) {
						t.Errorf("err = %v, want ErrTimeout", err)
					}
					timedOut++
				} else {
					vals = append(vals, v)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	t.Logf("completed=%d timed out=%d", len(vals), timedOut)
	if timedOut == 0 {
		t.Fatal("no increment timed out: the deadline was never exercised")
	}
	if err := Verify(vals); err != nil {
		t.Fatalf("abandonment burned a value: %v", err)
	}
	if got := obs.exits.Load(); got != int64(len(vals)) {
		t.Errorf("observer exits %d != completed %d", got, len(vals))
	}
}

// TestLinearizableAbandonedSlotReleasedInOrder: an increment that times
// out behind an unreturned earlier value hands its slot to a background
// release, which waits for the earlier value's turn and then frees the
// slot, so the increment after it is not blocked forever.
func TestLinearizableAbandonedSlotReleasedInOrder(t *testing.T) {
	lin := NewLinearizableCounter(new(AtomicCounter))
	lin.c.Inc(0) // value 0 goes to an operation that has not returned yet
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := lin.IncCtx(ctx, 0); !errors.Is(err, fault.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// Let value 1's release start waiting its turn, then return value 0.
	time.Sleep(time.Millisecond)
	lin.publish(0)
	done := make(chan int64, 1)
	go func() { done <- lin.Inc(0) }()
	select {
	case v := <-done:
		if v != 2 {
			t.Errorf("next increment got %d, want 2 (value 1 was abandoned)", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the abandoned value's slot was never released")
	}
}

// TestLinearizableIncCtxCancellation is the satellite edge-case test: some
// increments are cancelled mid-wait, and the wrapper must discard their
// values while still releasing their slots, so uncancelled increments
// behind them terminate and stay unique.
func TestLinearizableIncCtxCancellation(t *testing.T) {
	lin := NewLinearizableCounter(MustCompile(construct.MustBitonic(8)))
	const workers, per = 8, 100
	var mu sync.Mutex
	seen := make(map[int64]bool)
	var cancelled, completed atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if id%2 == 0 {
					// Even workers run on a deadline so tight it often
					// expires while the value waits for its slot.
					ctx, cancel = context.WithTimeout(ctx, 50*time.Microsecond)
				}
				v, err := lin.IncCtx(ctx, id)
				cancel()
				if err != nil {
					cancelled.Add(1)
					continue
				}
				completed.Add(1)
				mu.Lock()
				if seen[v] {
					mu.Unlock()
					t.Errorf("duplicate value %d", v)
					return
				}
				seen[v] = true
				mu.Unlock()
			}
		}(id)
	}
	wg.Wait()
	if completed.Load() == 0 {
		t.Fatal("no increment completed")
	}
	// Liveness: every abandoned slot must eventually be released, so one
	// final increment terminates and tops every earlier value.
	done := make(chan int64, 1)
	go func() {
		v, err := lin.IncCtx(context.Background(), 0)
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	select {
	case v := <-done:
		for u := range seen {
			if u >= v {
				t.Fatalf("final value %d not above earlier value %d", v, u)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("abandoned slots were never released: wrapper deadlocked")
	}
	t.Logf("completed=%d cancelled=%d", completed.Load(), cancelled.Load())
}

// TestLinearizableIncCtxDelegates: a CtxCounter underlying the wrapper
// sees the caller's context.
func TestLinearizableIncCtxDelegates(t *testing.T) {
	n := MustCompile(construct.MustBitonic(4))
	n.SetFaultHook(func(ctx context.Context, bal int) { <-ctx.Done() })
	lin := NewLinearizableCounter(n)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := lin.IncCtx(ctx, 0); !errors.Is(err, fault.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout from the underlying network", err)
	}
}
