package dst

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// simBackend wraps the compiled counting network for simulation with
// seeded per-call latency: how mailboxes fill and backpressure becomes
// reachable.
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
}

func (b *simBackend) Shape() network.Shape { return b.inner.Shape() }

// stall sleeps the seeded latency for this call.
func (b *simBackend) stall() {
	n := b.calls.Add(1)
	if b.latMax <= 0 {
		return
	}
	span := int64(b.latMax - b.latMin)
	base := b.latMin
	if span > 0 {
		base += time.Duration(mix3(b.seed, 0xbac0, n, 0) % uint64(span+1))
	}
	steps := 1 + base/grid
	off := time.Duration(4096+int(n%256)*16) * time.Nanosecond
	b.clk.Sleep(steps*grid + off)
}

// Mint implements server.Backend over the compiled network: the call's
// stall, then one traversal appended to dst.
func (b *simBackend) Mint(dst []runtime.Range, w, k int) ([]runtime.Range, error) {
	b.stall()
	return b.inner.IncBatchAppend(dst, w, k), nil
}

// netFaults is the simulation's frame-fault seam (wire.FrameFaults,
// installed as server.Options.Faults in both directions). Each
// (connection, direction) pair draws from a private seeded stream, so
// the schedule a connection sees depends only on the scenario and its
// connection id, never on how other connections interleave. Every frame
// consumes the same variates whatever their outcome, so one frame's
// fault never shifts the schedule of later frames on that stream.
//
// Drop/duplicate decisions pass through as drawn, but a non-zero delay
// is re-quantized onto the grid with an offset unique to the
// (connection, direction) pair, so no two sleeping frame handlers ever
// share a wake instant.
type netFaults struct {
	seed               int64
	drop, dup, delay   float64
	delayMin, delayMax time.Duration

	mu      sync.Mutex
	streams map[int]*rand.Rand // by conn*2+dir
}

// newNetFaults builds the seam for sc's frame-fault fields, or nil when
// the scenario injects none.
func newNetFaults(sc *Scenario) wire.FrameFaults {
	if !sc.faultsActive() {
		return nil
	}
	return &netFaults{
		seed:     int64(sc.Seed%((1<<62)-1)) + 1,
		drop:     sc.DropProb,
		dup:      sc.DupProb,
		delay:    sc.DelayProb,
		delayMin: sc.DelayMin,
		delayMax: sc.DelayMax,
		streams:  make(map[int]*rand.Rand),
	}
}

func (f *netFaults) Frame(conn int, inbound bool, _ int) wire.FrameFault {
	dir := 0
	if !inbound {
		dir = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	rng, ok := f.streams[conn*2+dir]
	if !ok {
		rng = rand.New(rand.NewSource(mixSeed(f.seed, kindNet, conn*2+dir)))
		f.streams[conn*2+dir] = rng
	}

	// The delay always consumes its Float64, and its jitter whenever the
	// span is non-zero; drop and duplicate consume one Float64 each only
	// when their probability is non-zero.
	var ff wire.FrameFault
	hit := rng.Float64() < f.delay
	var jitter int64
	if span := int64(f.delayMax - f.delayMin); span > 0 {
		jitter = rng.Int63n(span + 1)
	}
	if d := f.delayMin + time.Duration(jitter); hit && d > 0 {
		steps := 1 + d/grid
		ff.Delay = steps*grid + time.Duration(1+(conn%127)*32+dir*16)*time.Nanosecond
	}
	ff.Drop = f.drop > 0 && rng.Float64() < f.drop
	ff.Duplicate = f.dup > 0 && rng.Float64() < f.dup
	return ff
}

// kindNet is the stream family the frame-fault draws are seeded under.
const kindNet = 4

// mixSeed derives a well-spread per-stream seed (splitmix64 finalizer).
// It is not mix3: every faulted trace depends on these exact seeds, so
// changing the mixing (or kindNet) reshuffles them all.
func mixSeed(seed int64, kind, idx int) int64 {
	z := uint64(seed) + uint64(kind)*0x9e3779b97f4a7c15 + uint64(idx)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z | 1)
}
