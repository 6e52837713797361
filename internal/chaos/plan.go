// Package chaos turns the paper's adversaries into an executable fault
// vocabulary for the real concurrent implementations, and provides the
// fault-tolerance layer that lets counting survive them.
//
// The paper quantifies counting-network behaviour under adversarial
// *timing* — slow wires, stalled balancers, skewed processes. Its
// simulator (internal/sim) executes those adversaries against the formal
// model; this package executes them against the goroutine implementations:
// a seeded FaultPlan injects stalls, wire latency, token redelivery and
// crash-restart into internal/msgnet's actors and stalls into
// internal/runtime's compiled balancers, a ResilientCounter keeps an
// application counting when its primary network degrades beyond its
// deadline budget, and the package's tests drive a scenario catalogue
// through both substrates and assert which guarantees survive which
// faults (the frame faults of the serving stack are exercised by
// internal/dst, deterministically):
//
//   - the counting property (completed increments have no duplicates, and
//     no gaps when every increment completed) survives every non-crashing
//     fault and every warm (state-preserving) crash-restart;
//   - linearizability and sequential consistency degrade — exactly what
//     Theorems 3.2/5.11 predict once timing leaves the Table 1 envelope —
//     and the degradation is observable through the same AuditOps /
//     consistency pipeline used for benign runs.
package chaos

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/msgnet"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// CrashSpec schedules one warm crash-and-restart: the target balancer
// actor exits after processing its AtStep-th token (0-based) and is
// restarted Restart later with its checkpointed toggle. A Restart far
// longer than the run models a balancer that is effectively gone.
type CrashSpec struct {
	Balancer int
	AtStep   int
	Restart  time.Duration
}

// FaultPlan is a seeded, deterministic description of the faults to
// inject. Every probabilistic decision is drawn from a per-actor stream
// derived from Seed and the actor's identity, so the decision sequence
// each actor sees depends only on the plan — not on how the scheduler
// interleaves actors. The zero value injects nothing.
//
// One plan instance carries the per-actor stream state, so it should be
// used for one network run; build a fresh plan (same fields, same Seed)
// to replay the identical fault schedule.
type FaultPlan struct {
	Seed int64

	// StallProb stalls a balancer step for a duration uniform in
	// [StallMin, StallMax].
	StallProb          float64
	StallMin, StallMax time.Duration

	// LatencyProb delivers a forwarded token asynchronously after a delay
	// uniform in [LatencyMin, LatencyMax]; delayed tokens can be
	// overtaken, so wires lose their FIFO discipline (msgnet only — in
	// shared memory a wire is a pointer dereference).
	LatencyProb            float64
	LatencyMin, LatencyMax time.Duration

	// PauseProb pauses a counter actor before it answers, uniform in
	// [PauseMin, PauseMax] (msgnet only).
	PauseProb          float64
	PauseMin, PauseMax time.Duration

	// DuplicateProb redelivers a token into its sink RedeliverAfter after
	// it is first answered — at-least-once delivery on the sink wire; the
	// counter's dedup journal answers the duplicate idempotently (msgnet
	// only).
	DuplicateProb  float64
	RedeliverAfter time.Duration

	// Crashes are targeted warm crash-and-restarts (msgnet only; a
	// shared-memory balancer is a single atomic word — there is no actor
	// to crash, and its state cannot be lost).
	Crashes []CrashSpec

	// Network faults, applied at the serving layer's transport seam via
	// Frames (wire.FrameFaults): frames are dropped, duplicated, or
	// delayed uniform in [NetDelayMin, NetDelayMax]. A dropped or
	// duplicated increment burns counter values — bounded gaps among
	// observed values, never duplicates — which is exactly the msgnet
	// redelivery story replayed one layer up.
	NetDropProb              float64
	NetDupProb               float64
	NetDelayProb             float64
	NetDelayMin, NetDelayMax time.Duration

	mu      sync.Mutex
	streams map[streamKey]*stream
}

type streamKey struct {
	kind int // balancer / wire / counter / runtime-balancer
	idx  int
}

const (
	kindBalancer = iota
	kindWire
	kindCounter
	kindRuntime
	kindNet
)

// stream is one actor's private PRNG. msgnet actors use their stream from
// a single goroutine at a time (actor lifetimes are sequenced through the
// supervisor), but runtime balancers are hit by many goroutines at once,
// so draws are locked.
type stream struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (p *FaultPlan) streamFor(kind, idx int) *stream {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.streams == nil {
		p.streams = make(map[streamKey]*stream)
	}
	k := streamKey{kind, idx}
	s, ok := p.streams[k]
	if !ok {
		s = &stream{rng: rand.New(rand.NewSource(mix(p.Seed, kind, idx)))}
		p.streams[k] = s
	}
	return s
}

// mix derives a well-spread per-actor seed (splitmix64 finalizer).
func mix(seed int64, kind, idx int) int64 {
	z := uint64(seed) + uint64(kind)*0x9e3779b97f4a7c15 + uint64(idx)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z | 1)
}

// draw returns a duration uniform in [min, max] with probability prob,
// else 0. It always consumes the same number of variates, so one
// decision's outcome never shifts the stream seen by later decisions.
func (s *stream) draw(prob float64, min, max time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	hit := s.rng.Float64() < prob
	span := int64(max - min)
	var jitter int64
	if span > 0 {
		jitter = s.rng.Int63n(span + 1)
	}
	if !hit || prob == 0 {
		return 0
	}
	return min + time.Duration(jitter)
}

func (s *stream) hit(prob float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return prob > 0 && s.rng.Float64() < prob
}

// Msgnet compiles the plan into msgnet instrumentation; pass the result to
// msgnet.Start via msgnet.WithFaults.
func (p *FaultPlan) Msgnet() msgnet.Faults { return &msgnetFaults{p: p} }

type msgnetFaults struct{ p *FaultPlan }

// BalancerStep implements msgnet.Faults.
func (f *msgnetFaults) BalancerStep(b, step int) msgnet.StepFault {
	var sf msgnet.StepFault
	for _, c := range f.p.Crashes {
		if c.Balancer == b && c.AtStep == step {
			sf.Crash, sf.Restart = true, c.Restart
		}
	}
	sf.Stall = f.p.streamFor(kindBalancer, b).draw(f.p.StallProb, f.p.StallMin, f.p.StallMax)
	return sf
}

// WireDelay implements msgnet.Faults.
func (f *msgnetFaults) WireDelay(b, _, _ int) time.Duration {
	return f.p.streamFor(kindWire, b).draw(f.p.LatencyProb, f.p.LatencyMin, f.p.LatencyMax)
}

// CounterStep implements msgnet.Faults.
func (f *msgnetFaults) CounterStep(j, _ int) msgnet.StepFault {
	var sf msgnet.StepFault
	sf.Stall = f.p.streamFor(kindCounter, j).draw(f.p.PauseProb, f.p.PauseMin, f.p.PauseMax)
	if f.p.streamFor(kindCounter, j).hit(f.p.DuplicateProb) {
		sf.Redeliver, sf.RedeliverAfter = true, f.p.RedeliverAfter
	}
	return sf
}

// Frames compiles the plan's network faults into a wire.FrameFaults for
// the serving layer (server.Options.Faults). Each (connection,
// direction) pair gets its own deterministic stream, so the fault
// schedule a connection sees depends only on the plan and its connection
// id — not on how other connections interleave.
func (p *FaultPlan) Frames() wire.FrameFaults { return &frameFaults{p: p} }

type frameFaults struct{ p *FaultPlan }

// Frame implements wire.FrameFaults. Every call consumes the same number
// of variates, so one frame's outcome never shifts the schedule seen by
// later frames on the same connection.
func (f *frameFaults) Frame(conn int, inbound bool, _ int) wire.FrameFault {
	dir := 0
	if !inbound {
		dir = 1
	}
	s := f.p.streamFor(kindNet, conn*2+dir)
	var ff wire.FrameFault
	ff.Delay = s.draw(f.p.NetDelayProb, f.p.NetDelayMin, f.p.NetDelayMax)
	ff.Drop = s.hit(f.p.NetDropProb)
	ff.Duplicate = s.hit(f.p.NetDupProb)
	return ff
}

// RuntimeHook compiles the plan into a runtime.FaultHook: per-balancer
// stalls, the one fault with a shared-memory analogue (a process holding a
// balancer's cache line hostage, or descheduled mid-traversal). Stalls
// honour ctx, so deadline-bounded increments are released early.
func (p *FaultPlan) RuntimeHook() runtime.FaultHook {
	return func(ctx context.Context, bal int) {
		d := p.streamFor(kindRuntime, bal).draw(p.StallProb, p.StallMin, p.StallMax)
		if d <= 0 {
			return
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
}
