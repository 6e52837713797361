package dst

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// simBackend wraps the compiled counting network for simulation: seeded
// per-call latency (how mailboxes fill and backpressure becomes
// reachable) and, when bug is set, a deliberately injected
// duplicate-mint defect the invariant checker must catch — the canary
// proving the harness can see real bugs.
//
// Latency deadlines are grid-aligned with a per-call offset of their
// own, so the sweeper asleep in the backend never wakes at the same
// simulated instant as another actor. The server's one sweeper is the
// only caller, so calls are serialized, which makes the call counter
// deterministic.
type simBackend struct {
	inner *runtime.Network
	clk   *clock.Sim
	seed  uint64

	latMin, latMax time.Duration
	calls          atomic.Uint64

	bug     bool
	bugMu   sync.Mutex
	lastOut []runtime.Range // previous sweep's ranges, replayed on a bug hit
}

func (b *simBackend) Shape() network.Shape { return b.inner.Shape() }

// stall sleeps the seeded latency for this call and reports the call's
// ordinal.
func (b *simBackend) stall() uint64 {
	n := b.calls.Add(1)
	if b.latMax <= 0 {
		return n
	}
	span := int64(b.latMax - b.latMin)
	base := b.latMin
	if span > 0 {
		base += time.Duration(mix3(b.seed, 0xbac0, n, 0) % uint64(span+1))
	}
	steps := 1 + base/grid
	off := time.Duration(4096+int(n%256)*16) * time.Nanosecond
	b.clk.Sleep(steps*grid + off)
	return n
}

// mint reports whether this call should trip the injected
// duplicate-mint bug (re-serving the previous result).
func (b *simBackend) trip(n uint64) bool {
	return b.bug && mix3(b.seed, 0xb116, n, 1)%100 < 7
}

func (b *simBackend) IncBatch(w, k int) []runtime.Range {
	n := b.stall()
	if b.trip(n) {
		b.bugMu.Lock()
		prev := b.lastOut
		b.bugMu.Unlock()
		if total(prev) >= int64(k) {
			return clip(prev, int64(k))
		}
	}
	rs := b.inner.IncBatch(w, k)
	b.bugMu.Lock()
	b.lastOut = rs
	b.bugMu.Unlock()
	return rs
}

func total(rs []runtime.Range) int64 {
	var t int64
	for _, r := range rs {
		t += r.Count
	}
	return t
}

// clip returns the first k values of rs as ranges.
func clip(rs []runtime.Range, k int64) []runtime.Range {
	out := make([]runtime.Range, 0, len(rs))
	for _, r := range rs {
		if k <= 0 {
			break
		}
		take := r.Count
		if take > k {
			take = k
		}
		out = append(out, runtime.Range{First: r.First, Stride: r.Stride, Count: take})
		k -= take
	}
	return out
}

// gridFaults adapts a chaos plan's frame faults to the simulation's
// collision-free timing discipline: drop/duplicate decisions pass
// through untouched, but a non-zero delay is re-quantized onto the
// grid with an offset unique to the (connection, direction) pair, so
// no two sleeping frame handlers ever share a wake instant.
type gridFaults struct {
	inner wire.FrameFaults
}

func (g gridFaults) Frame(conn int, inbound bool, seq int) wire.FrameFault {
	f := g.inner.Frame(conn, inbound, seq)
	if f.Delay > 0 {
		dir := 0
		if !inbound {
			dir = 1
		}
		steps := 1 + f.Delay/grid
		f.Delay = steps*grid + time.Duration(1+(conn%127)*32+dir*16)*time.Nanosecond
	}
	return f
}
