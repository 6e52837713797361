// Package msgnet is the message-passing implementation of balancing
// networks. Section 2.3 of the paper notes its timing model "is
// sufficiently general to capture both shared memory and message passing
// implementations of balancers"; package runtime is the shared-memory
// implementation, and this package is the message-passing one:
//
//   - every balancer is a goroutine (an actor) owning its round-robin
//     toggle — no atomics, no locks; state is confined to the actor;
//   - wires are channels: a balancer forwards a token by sending it into
//     the next node's inbox;
//   - every sink counter is a goroutine owning its value sequence and
//     answering each token on the token's reply channel.
//
// The actor-per-balancer design makes each balancer transition trivially
// atomic (one goroutine serializes it), which is exactly the
// instantaneous-step semantics of the formal model; the channel hops play
// the role of wire delays.
//
// # Fault injection
//
// Start accepts WithFaults, which installs a Faults instrumentation that
// every actor consults once per step. The instrumentation can stall a
// balancer or counter, add latency to a wire (delivered asynchronously, so
// wires lose their FIFO discipline — the paper's "wires provide no
// ordering of pending tokens" made real), crash an actor (a supervisor
// restarts it after a downtime with its checkpointed toggle, while the
// inbox channel retains the tokens queued during the outage), and
// redeliver a token into its sink (at-least-once delivery; counters
// deduplicate by token id and replay the original value, so duplication
// never burns a counter value). Uninstrumented networks take none of
// these paths and keep the original behaviour.
package msgnet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/network"
)

// token is one increment request flowing through the channels. The id is
// unique per network and exists for the benefit of fault tolerance: it
// lets counters recognise a redelivered token and answer idempotently.
// wire is the issuing caller's input wire, carried so that observers can
// attribute balancer visits to the worker that launched the token.
type token struct {
	id    uint64
	wire  int
	reply chan int64
}

// Observer receives telemetry events from an instrumented network (the
// telemetry package's Collector satisfies it). Methods must be
// safe for concurrent use: BalancerVisit is called from the balancer
// actors, TokenEnter/TokenExit from the caller's goroutine. wire is the
// caller-supplied input wire, un-reduced. Balancers here never retry a
// CAS, so the interface omits the shared-memory substrate's CASRetry.
type Observer interface {
	TokenEnter(wire int)
	BalancerVisit(wire, bal int)
	TokenExit(wire, sink int, value int64, elapsed time.Duration)
}

// StepFault tells an instrumented actor what to do before one step. The
// zero value is "behave normally".
type StepFault struct {
	// Stall pauses the actor before it processes the token. Stalled
	// actors still shut down promptly on Close.
	Stall time.Duration
	// Crash makes the actor exit after completing this step; a supervisor
	// restarts it after Restart with its checkpointed state (the
	// round-robin toggle and, for counters, the value sequence and
	// dedup journal survive — a warm restart). Tokens queued in the
	// actor's inbox wait out the outage on the wire.
	Crash   bool
	Restart time.Duration
	// Redeliver (counters only) re-enqueues the token into the counter's
	// own inbox after RedeliverAfter, modelling at-least-once delivery on
	// the sink wire. The counter's dedup journal answers the duplicate
	// with the original value, so no counter value is consumed twice or
	// skipped.
	Redeliver      bool
	RedeliverAfter time.Duration
}

// Faults supplies fault directives to instrumented actors. Every method
// receives the actor's index and its local step count (tokens processed so
// far in this actor's lifetime, surviving restarts), so a seeded plan can
// be deterministic per actor regardless of cross-actor interleaving.
// Implementations must be safe for concurrent use: distinct actors call
// concurrently (though each actor calls sequentially).
type Faults interface {
	// BalancerStep is consulted once per token arriving at balancer b.
	BalancerStep(b, step int) StepFault
	// WireDelay is consulted once per token leaving balancer b on output
	// port p; a positive duration delivers the token asynchronously after
	// that delay, breaking FIFO order on the wire.
	WireDelay(b, p, step int) time.Duration
	// CounterStep is consulted once per token arriving at sink j.
	CounterStep(j, step int) StepFault
}

// Option configures Start.
type Option func(*Network)

// WithFaults installs fault instrumentation on every actor. A nil Faults
// leaves the network uninstrumented.
func WithFaults(f Faults) Option {
	return func(n *Network) { n.faults = f }
}

// WithObserver installs a telemetry observer. A nil Observer leaves the
// network unobserved; uninstrumented actors pay one nil check per step.
func WithObserver(o Observer) Option {
	return func(n *Network) { n.obs = o }
}

// Network is a running message-passing counting network. Create with
// Start, use Inc/IncCtx concurrently, then Close once no increment is in
// flight.
type Network struct {
	spec   *network.Network
	inputs []chan token
	done   chan struct{}
	wg     sync.WaitGroup
	closed bool
	mu     sync.Mutex
	faults Faults
	obs    Observer
	nextID atomic.Uint64
}

// balState is a balancer actor's checkpointed state: it survives
// crash-and-restart, so a restarted actor resumes the round-robin exactly
// where its predecessor left off.
type balState struct {
	next int // round-robin toggle
	step int // tokens processed, feeds the fault plan
}

// ctrState is a counter actor's checkpointed state.
type ctrState struct {
	value    int64
	step     int
	answered map[uint64]int64 // token id → value already handed out
}

// Start spins up the balancer and counter actors for spec. buffer sizes
// every wire channel; 0 gives fully synchronous hand-offs (a send *is* the
// wire traversal), larger values let wires hold pending tokens, matching
// the paper's "wires provide no ordering of pending tokens" only loosely —
// channel wires are FIFO, a legal special case of the model (injected wire
// latency breaks the FIFO special case; see WithFaults).
func Start(spec *network.Network, buffer int, opts ...Option) (*Network, error) {
	if buffer < 0 {
		return nil, fmt.Errorf("msgnet: negative buffer %d", buffer)
	}
	n := &Network{spec: spec, done: make(chan struct{})}
	for _, opt := range opts {
		opt(n)
	}

	// One inbox per balancer, one per sink.
	balIn := make([]chan token, spec.Size())
	for b := range balIn {
		balIn[b] = make(chan token, buffer)
	}
	sinkIn := make([]chan token, spec.FanOut())
	for j := range sinkIn {
		sinkIn[j] = make(chan token, buffer)
	}
	chanFor := func(e network.Endpoint) (chan token, error) {
		switch e.Kind {
		case network.KindBalancer:
			return balIn[e.Index], nil
		case network.KindSink:
			return sinkIn[e.Index], nil
		default:
			return nil, fmt.Errorf("msgnet: wire into %v", e)
		}
	}

	// Balancer actors.
	for b := 0; b < spec.Size(); b++ {
		outs := make([]chan token, spec.Balancer(b).FanOut)
		for p := range outs {
			ch, err := chanFor(spec.OutputTarget(b, p))
			if err != nil {
				return nil, err
			}
			outs[p] = ch
		}
		n.wg.Add(1)
		go n.balancerActor(b, balIn[b], outs, &balState{})
	}

	// Counter actors: sink j owns the sequence j, j+w, j+2w, ...
	for j := 0; j < spec.FanOut(); j++ {
		st := &ctrState{value: int64(j)}
		if n.faults != nil {
			st.answered = make(map[uint64]int64)
		}
		n.wg.Add(1)
		go n.counterActor(j, sinkIn[j], st)
	}

	// Input wires.
	n.inputs = make([]chan token, spec.FanIn())
	for i := 0; i < spec.FanIn(); i++ {
		ch, err := chanFor(spec.InputTarget(i))
		if err != nil {
			return nil, err
		}
		n.inputs[i] = ch
	}
	return n, nil
}

// sleep pauses for d unless the network shuts down first; it reports
// whether the network is still open.
func (n *Network) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-n.done:
		return false
	}
}

// send delivers tok into out unless the network shuts down first.
func (n *Network) send(out chan token, tok token) {
	select {
	case out <- tok:
	case <-n.done:
	}
}

// balancerActor is one lifetime of balancer b. It owns st; on crash the
// supervisor hands st to the successor, so the toggle survives.
func (n *Network) balancerActor(b int, inbox chan token, outs []chan token, st *balState) {
	defer n.wg.Done()
	for {
		select {
		case tok := <-inbox:
			if n.obs != nil {
				n.obs.BalancerVisit(tok.wire, b)
			}
			var f StepFault
			if n.faults != nil {
				f = n.faults.BalancerStep(b, st.step)
			}
			if !n.sleep(f.Stall) {
				return
			}
			out := outs[st.next]
			port := st.next
			st.next = (st.next + 1) % len(outs)
			st.step++
			var delay time.Duration
			if n.faults != nil {
				delay = n.faults.WireDelay(b, port, st.step-1)
			}
			if delay > 0 {
				// Asynchronous delivery: the balancer moves on while the
				// token rides a slow wire, so later tokens can overtake
				// it — wires stop being FIFO, as the model allows.
				n.wg.Add(1)
				go func() {
					defer n.wg.Done()
					if n.sleep(delay) {
						n.send(out, tok)
					}
				}()
			} else {
				select {
				case out <- tok:
				case <-n.done:
					return
				}
			}
			if f.Crash {
				n.wg.Add(1)
				go n.superviseBalancer(b, inbox, outs, st, f.Restart)
				return
			}
		case <-n.done:
			return
		}
	}
}

// superviseBalancer restarts a crashed balancer actor after its downtime,
// resuming from the checkpointed state. It runs on the crashed actor's
// replacement wg slot.
func (n *Network) superviseBalancer(b int, inbox chan token, outs []chan token, st *balState, downtime time.Duration) {
	if !n.sleep(downtime) {
		n.wg.Done()
		return
	}
	n.balancerActor(b, inbox, outs, st)
}

// counterActor is one lifetime of sink j.
func (n *Network) counterActor(j int, inbox chan token, st *ctrState) {
	defer n.wg.Done()
	w := int64(n.spec.FanOut())
	for {
		select {
		case tok := <-inbox:
			if n.faults == nil {
				tok.reply <- st.value
				st.value += w
				continue
			}
			f := n.faults.CounterStep(j, st.step)
			st.step++
			if !n.sleep(f.Stall) {
				return
			}
			if v, ok := st.answered[tok.id]; ok {
				// Redelivered token: replay the original value without
				// consuming a new one. The reply is best-effort — the
				// client needed only one answer and has likely taken it.
				select {
				case tok.reply <- v:
				default:
				}
			} else {
				st.answered[tok.id] = st.value
				tok.reply <- st.value
				st.value += w
			}
			if f.Redeliver {
				dup, after := tok, f.RedeliverAfter
				n.wg.Add(1)
				go func() {
					defer n.wg.Done()
					if n.sleep(after) {
						n.send(inbox, dup)
					}
				}()
			}
			if f.Crash {
				n.wg.Add(1)
				go n.superviseCounter(j, inbox, st, f.Restart)
				return
			}
		case <-n.done:
			return
		}
	}
}

// superviseCounter restarts a crashed counter actor after its downtime.
func (n *Network) superviseCounter(j int, inbox chan token, st *ctrState, downtime time.Duration) {
	if !n.sleep(downtime) {
		n.wg.Done()
		return
	}
	n.counterActor(j, inbox, st)
}

// IncCtx shepherds one token from the given input wire (reduced modulo the
// fan-in) to its counter and returns the value. It gives up with
// fault.ErrTimeout when ctx's deadline expires, ctx.Err() when ctx is
// cancelled, and fault.ErrClosed when the network shuts down, in each case
// abandoning the token: an abandoned token that later reaches a counter
// has its value discarded (never handed to any caller), so completed
// operations never see duplicates. Safe for concurrent use.
func (n *Network) IncCtx(ctx context.Context, wire int) (int64, error) {
	obs := n.obs
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
		obs.TokenEnter(wire)
	}
	tok := token{id: n.nextID.Add(1), wire: wire, reply: make(chan int64, 1)}
	select {
	case n.inputs[wire%len(n.inputs)] <- tok:
	case <-n.done:
		return 0, fault.ErrClosed
	case <-ctx.Done():
		return 0, fault.FromContext(ctx.Err())
	}
	select {
	case v := <-tok.reply:
		if obs != nil {
			// The sink identity is recoverable from the value: counter j
			// hands out exactly the values ≡ j (mod w).
			obs.TokenExit(wire, int(v)%n.spec.FanOut(), v, time.Since(t0))
		}
		return v, nil
	case <-n.done:
		return 0, fault.ErrClosed
	case <-ctx.Done():
		return 0, fault.FromContext(ctx.Err())
	}
}

// Inc is IncCtx without a deadline, kept for compatibility with the
// Counter interface. It returns -1 exactly when IncCtx would return
// fault.ErrClosed — the network was closed before the token completed.
func (n *Network) Inc(wire int) int64 {
	v, err := n.IncCtx(context.Background(), wire)
	if err != nil {
		return -1
	}
	return v
}

// FanIn returns the number of network input wires.
func (n *Network) FanIn() int { return n.spec.FanIn() }

// FanOut returns the number of output counters.
func (n *Network) FanOut() int { return n.spec.FanOut() }

// Width is FanIn under its serving-layer name: valid input wire ids are
// 0..Width()-1 (Inc reduces arbitrary ids modulo the width; a server
// validating remote requests wants the bound).
func (n *Network) Width() int { return n.spec.FanIn() }

// Shape returns the running network's structural fingerprint.
func (n *Network) Shape() network.Shape { return n.spec.Shape() }

// Closed reports whether Close has been called.
func (n *Network) Closed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// Close stops every actor and waits for them to exit. In-flight tokens are
// abandoned with their Inc returning -1 (IncCtx returning fault.ErrClosed);
// the values those tokens would have obtained are never handed out, so a
// Close racing in-flight increments cannot create duplicates among the
// increments that did complete. Close is idempotent.
func (n *Network) Close() {
	n.mu.Lock()
	if !n.closed {
		n.closed = true
		close(n.done)
	}
	n.mu.Unlock()
	n.wg.Wait()
}
