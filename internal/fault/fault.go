// Package fault is the shared error vocabulary of the fault-tolerant
// counting API. Both concurrent substrates (internal/runtime,
// internal/msgnet) and the network client (internal/client) return these
// sentinels, so callers can switch on a failure's kind without knowing
// which implementation served the increment.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
)

var (
	// ErrClosed reports an increment issued against a network that has
	// been shut down (msgnet.Network.Close), or whose token was abandoned
	// by the shutdown while in flight. It replaces the historical -1
	// sentinel value.
	ErrClosed = errors.New("counting network: closed")

	// ErrTimeout reports an increment that gave up because its context's
	// deadline expired while the token was stalled or in flight. It wraps
	// context.DeadlineExceeded, so errors.Is works with either sentinel.
	ErrTimeout = fmt.Errorf("counting network: stalled: %w", context.DeadlineExceeded)
)

// FromContext converts a context error into the package vocabulary:
// deadline expiry becomes ErrTimeout; cancellation passes through as
// context.Canceled (the caller asked to stop — that is not a fault).
func FromContext(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrTimeout
	}
	return err
}

// Backoff computes retry delays: exponential from Base, capped at Cap,
// with equal jitter (half fixed, half uniform) so stalled callers do not
// retry in lockstep. It is the network client's retry policy
// (client.Options.Backoff), on the wall clock in production and on the
// simulation's virtual clock under internal/dst. The zero value is
// usable (Base 1ms, Cap 100ms, Seed 1); a Backoff must not be copied
// after first use.
type Backoff struct {
	// Base is the first retry's backoff; Cap bounds the exponential
	// growth. Seed seeds the jitter (same seed, same delay sequence).
	Base, Cap time.Duration
	Seed      int64

	// Clock times the Sleep waits; nil means the wall clock. Under the
	// deterministic simulation harness it is the shared virtual clock.
	Clock clock.Clock

	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand
}

// Delay returns the attempt-th retry's delay (attempt 0 is the first
// retry). Safe for concurrent use.
func (b *Backoff) Delay(attempt int) time.Duration {
	b.once.Do(func() {
		if b.Base <= 0 {
			b.Base = time.Millisecond
		}
		if b.Cap <= 0 {
			b.Cap = 100 * time.Millisecond
		}
		seed := b.Seed
		if seed == 0 {
			seed = 1
		}
		b.rng = rand.New(rand.NewSource(seed))
	})
	d := b.Base
	for i := 0; i < attempt && d < b.Cap; i++ {
		d *= 2
	}
	if d > b.Cap {
		d = b.Cap
	}
	b.mu.Lock()
	j := time.Duration(b.rng.Int63n(int64(d) + 1))
	b.mu.Unlock()
	return d/2 + j/2
}

// Sleep waits out the attempt-th retry delay or returns early with ctx's
// converted error; a nil return means the full delay elapsed with ctx
// still live. A ctx that has ended, before the wait or as its timer
// fires, always wins: the caller has gone, and nothing may be re-sent on
// its behalf.
func (b *Backoff) Sleep(ctx context.Context, attempt int) error {
	if err := ctx.Err(); err != nil {
		return FromContext(err)
	}
	t := clock.Or(b.Clock).NewTimer(b.Delay(attempt))
	defer t.Stop()
	select {
	case <-t.C():
	case <-ctx.Done():
	}
	return FromContext(ctx.Err())
}
