// Package clock is the time seam of the serving stack. Every component
// that waits — the server's flush deadlines and op timeouts, the
// client's retry backoff and attempt deadlines, the cluster's gossip
// and elections — takes a Clock instead of calling the time package
// directly, so the same unmodified code runs against the wall clock in
// production and against a virtual clock (Sim) under the deterministic
// simulation harness (internal/dst).
//
// The discipline is enforced: `make lint` fails on any direct
// time.Now/time.Sleep/time.After/time.NewTimer call inside
// internal/client, internal/server or internal/fault.
package clock

import (
	"context"
	"time"
)

// Clock abstracts the subset of the time package the serving stack
// uses. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock's timeline.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d of this clock's time.
	Sleep(d time.Duration)
	// NewTimer returns a running timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// AfterFunc schedules f to run (on an unspecified goroutine) after
	// d; the returned timer's Stop cancels it.
	AfterFunc(d time.Duration, f func()) Timer
	// WithTimeout derives a context that is cancelled with
	// context.DeadlineExceeded once d of this clock's time has passed —
	// the clock-aware form of context.WithTimeout.
	WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// Timer mirrors *time.Timer behind an interface so virtual timers can
// stand in for kernel ones. The semantics match the time package: C is
// buffered, Stop reports whether it prevented the firing, Reset must
// only be called on stopped or drained timers.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Real returns the wall clock. All methods delegate to the time and
// context packages; the value is stateless and shared.
func Real() Clock { return realClock{} }

// Or returns c, or the wall clock when c is nil — the idiom for
// defaulting an Options.Clock field.
func Or(c Clock) Clock {
	if c == nil {
		return Real()
	}
	return c
}

type realClock struct{}

func (realClock) Now() time.Time                  { return time.Now() }
func (realClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (realClock) Sleep(d time.Duration)           { time.Sleep(d) }

func (realClock) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

func (realClock) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, d)
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time        { return rt.t.C }
func (rt realTimer) Stop() bool                 { return rt.t.Stop() }
func (rt realTimer) Reset(d time.Duration) bool { return rt.t.Reset(d) }
