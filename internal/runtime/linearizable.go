package runtime

import (
	"context"
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
// returned even when its goroutine was preempted.
type LinearizableCounter struct {
	c Counter
	// published is the lowest value not yet returned: values return in
	// order 0, 1, 2, ...
	published atomic.Int64
}

// NewLinearizableCounter wraps c, which must hand out exactly the values
// 0, 1, 2, ... across all callers (every Counter in this package does).
func NewLinearizableCounter(c Counter) *LinearizableCounter {
	return &LinearizableCounter{c: c}
}

// Inc implements Counter: traverse the underlying counter, then hold the
// value until it is the next to be released.
func (l *LinearizableCounter) Inc(wire int) int64 {
	v := l.c.Inc(wire)
	var sw spinWait
	for l.published.Load() != v {
		sw.wait()
	}
	l.published.Store(v + 1)
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
	// ctx.Err takes a lock: check it on the first failed poll and after
	// every yield, not on every spin.
	var sw spinWait
	for check := true; l.published.Load() != v; check = sw.wait() {
		if !check {
			continue
		}
		if err := ctx.Err(); err != nil {
			go l.release(v)
			return 0, fault.FromContext(err)
		}
	}
	l.published.Store(v + 1)
	return v, nil
}

// release waits for v's turn and releases its slot without returning it.
func (l *LinearizableCounter) release(v int64) {
	var sw spinWait
	for l.published.Load() != v {
		sw.wait()
	}
	l.published.Store(v + 1)
}
