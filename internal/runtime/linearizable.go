package runtime

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// LinearizableCounter wraps any quiescently-consistent Counter (typically
// a counting network) and makes it linearizable by *waiting*: an increment
// that obtained value v does not return until every value below v has been
// returned. Returns are therefore serialized in value order, so the order
// of values extends the real-time order of operations — Herlihy, Shavit
// and Waarts's observation that linearizable counting demands waiting,
// made concrete.
//
// If an operation completed before another began, all values up to the
// first operation's were already returned when the second started, and the
// underlying counter can only hand the second operation a fresh (larger)
// value. The cost is exactly what the paper's impossibility result
// (HSW96, cited in Section 1.1) predicts: completions are serialized, so
// the network's parallelism is spent only on the traversal, not on the
// hand-off. Waiters poll through spinWait, so the value being waited on is
// returned even when its goroutine was preempted, and then park until the
// release of the value below theirs wakes them.
type LinearizableCounter struct {
	c Counter
	// published is the lowest value not yet returned: values return in
	// order 0, 1, 2, ...
	published atomic.Int64
	// parked counts the waiters in wake, which maps a parked waiter's
	// value to the channel that wakes it; a release with none parked
	// pays one load.
	parked atomic.Int32
	mu     sync.Mutex
	wake   map[int64]chan struct{}
}

// NewLinearizableCounter wraps c, which must hand out exactly the values
// 0, 1, 2, ... across all callers (every Counter in this package does).
func NewLinearizableCounter(c Counter) *LinearizableCounter {
	return &LinearizableCounter{c: c, wake: make(map[int64]chan struct{})}
}

// Inc implements Counter: traverse the underlying counter, then hold the
// value until it is the next to be released.
func (l *LinearizableCounter) Inc(wire int) int64 {
	v := l.c.Inc(wire)
	_ = l.await(context.Background(), v)
	l.publish(v)
	return v
}

// IncCtx is Inc with cancellation support. Because returns are serialized
// in value order, a caller that gives up while waiting cannot simply
// vanish — every later value is waiting on its slot. An abandoned
// operation therefore hands its release duty to a background goroutine:
// the value is discarded (never returned to any caller, so no duplicates)
// but its slot is still released in order, so waiters behind it make
// progress. If the underlying counter is itself a CtxCounter, the
// traversal also honours ctx.
func (l *LinearizableCounter) IncCtx(ctx context.Context, wire int) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fault.FromContext(err)
	}
	var v int64
	if cc, ok := l.c.(CtxCounter); ok {
		var err error
		if v, err = cc.IncCtx(ctx, wire); err != nil {
			return 0, err
		}
	} else {
		v = l.c.Inc(wire)
	}
	if err := l.await(ctx, v); err != nil {
		go func() { // v's slot is still released in order
			_ = l.await(context.Background(), v)
			l.publish(v)
		}()
		return 0, fault.FromContext(err)
	}
	l.publish(v)
	return v, nil
}

// await returns once v is the next value to return, or with ctx's error.
// It polls through spinWait, checking ctx (which takes a lock) only once
// the spins are spent, then parks until v's turn or ctx's end.
func (l *LinearizableCounter) await(ctx context.Context, v int64) error {
	var sw spinWait
	for l.published.Load() != v {
		if sw.yielding() {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !sw.wait() {
			return l.park(ctx, v)
		}
	}
	return nil
}

// park sleeps until publish hands v its turn, or ctx ends. It counts
// itself parked before it re-reads published, and publish stores
// published before it reads parked, so one of the two sees the other.
func (l *LinearizableCounter) park(ctx context.Context, v int64) error {
	wake := make(chan struct{}, 1)
	l.mu.Lock()
	l.parked.Add(1)
	l.wake[v] = wake
	l.mu.Unlock()
	if l.published.Load() != v {
		select {
		case <-wake:
			return nil
		case <-ctx.Done():
			if l.unpark(v) != nil {
				return ctx.Err()
			} // else publish woke v as ctx ended: v's turn came first
		}
	}
	l.unpark(v)
	return nil
}

// unpark removes v's parked waiter and returns its channel (nil: none).
func (l *LinearizableCounter) unpark(v int64) chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	wake := l.wake[v]
	if wake != nil {
		delete(l.wake, v)
		l.parked.Add(-1)
	}
	return wake
}

// publish returns v's slot: v+1 becomes the next value to return, and its
// waiter is woken if it parked.
func (l *LinearizableCounter) publish(v int64) {
	l.published.Store(v + 1)
	if l.parked.Load() != 0 {
		if wake := l.unpark(v + 1); wake != nil {
			wake <- struct{}{}
		}
	}
}
