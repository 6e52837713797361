package network

import (
	"fmt"
	"math/rand"
)

// State holds the mutable part of a balancing network: each balancer's
// round-robin toggle and each sink counter's next value, together with the
// history variables (per-port token counts) used by the paper's safety,
// liveness and step properties (Section 2.2).
//
// State is not safe for concurrent use; it models the *semantics* of
// executions, where balancer transition steps are instantaneous and occur
// in a definite total order. For a genuinely concurrent implementation see
// package runtime.
type State struct {
	net *Network

	balState    []int   // next output port, 0-based ("state s" in the paper, minus 1)
	counterNext []int64 // next value handed out by each sink

	// History variables (Section 2.2, property 4): per-port cumulative
	// token counts since the initial state.
	inCount  []int64   // tokens entered on each network input wire
	balIn    [][]int64 // x_i per balancer input port
	balOut   [][]int64 // y_j per balancer output port
	sinkIn   []int64   // tokens that reached each sink
	inFlight int       // tokens started but not yet counted
}

// NewState returns the initial network state: every balancer points at its
// top output wire and sink j will hand out value j first.
func NewState(net *Network) *State {
	s := &State{
		net:         net,
		balState:    make([]int, net.Size()),
		counterNext: make([]int64, net.FanOut()),
		inCount:     make([]int64, net.FanIn()),
		balIn:       make([][]int64, net.Size()),
		balOut:      make([][]int64, net.Size()),
		sinkIn:      make([]int64, net.FanOut()),
	}
	for b := 0; b < net.Size(); b++ {
		spec := net.Balancer(b)
		s.balIn[b] = make([]int64, spec.FanIn)
		s.balOut[b] = make([]int64, spec.FanOut)
	}
	for j := range s.counterNext {
		s.counterNext[j] = int64(j)
	}
	return s
}

// Network returns the wiring this state executes over.
func (s *State) Network() *Network { return s.net }

// Clone returns an independent copy of the state.
func (s *State) Clone() *State {
	c := &State{
		net:         s.net,
		balState:    append([]int(nil), s.balState...),
		counterNext: append([]int64(nil), s.counterNext...),
		inCount:     append([]int64(nil), s.inCount...),
		balIn:       make([][]int64, len(s.balIn)),
		balOut:      make([][]int64, len(s.balOut)),
		sinkIn:      append([]int64(nil), s.sinkIn...),
		inFlight:    s.inFlight,
	}
	for i := range s.balIn {
		c.balIn[i] = append([]int64(nil), s.balIn[i]...)
		c.balOut[i] = append([]int64(nil), s.balOut[i]...)
	}
	return c
}

// BalancerState returns the 0-based next-output index of balancer b.
func (s *State) BalancerState(b int) int { return s.balState[b] }

// SinkCount returns how many tokens have exited on output wire j
// (the network-level history variable y_j).
func (s *State) SinkCount(j int) int64 { return s.sinkIn[j] }

// SinkCounts returns a copy of all network-level output counts y_1..y_wOut.
func (s *State) SinkCounts() []int64 { return append([]int64(nil), s.sinkIn...) }

// InputCount returns how many tokens have entered on input wire i
// (the network-level history variable x_i).
func (s *State) InputCount(i int) int64 { return s.inCount[i] }

// InFlight returns the number of tokens that entered the network but have
// not yet traversed a counter. The state is quiescent iff this is zero.
func (s *State) InFlight() int { return s.inFlight }

// Quiescent reports whether every token that entered the network has exited
// (Section 2.2's liveness property fixed point).
func (s *State) Quiescent() bool { return s.inFlight == 0 }

// Cursor is a token in flight: it sits on the wire leaving At, waiting to
// take its next instantaneous transition step.
type Cursor struct {
	// At is the endpoint whose outgoing wire currently carries the token:
	// a source node before the first step, then balancer output ports.
	At Endpoint
	// Done reports whether the token has traversed its counter.
	Done bool
	// Value is the counter value obtained; valid only once Done.
	Value int64
	// Steps counts balancer transitions taken so far (the token is about to
	// pass through layer Steps+1).
	Steps int
}

// Start introduces a token on network input wire i and returns its cursor.
func (s *State) Start(i int) *Cursor {
	s.inCount[i]++
	s.inFlight++
	return &Cursor{At: Endpoint{Kind: KindSource, Index: i}}
}

// StepKind discriminates the two instantaneous transition steps.
type StepKind int

// Step kinds, per the paper's BAL and COUNT transition steps.
const (
	StepBalancer StepKind = iota + 1 // BAL_p(T, B, i, j)
	StepCounter                      // COUNT_p(T, C, v)
)

// Step describes one instantaneous transition taken by a token.
type Step struct {
	Kind     StepKind
	Balancer int   // balancer index (StepBalancer)
	InPort   int   // input wire the token entered on (StepBalancer)
	OutPort  int   // output wire the token exited on (StepBalancer)
	Sink     int   // sink index (StepCounter)
	Value    int64 // value obtained (StepCounter)
}

// String implements fmt.Stringer.
func (st Step) String() string {
	if st.Kind == StepBalancer {
		return fmt.Sprintf("BAL(b%d, in%d→out%d)", st.Balancer, st.InPort, st.OutPort)
	}
	return fmt.Sprintf("COUNT(c%d, v=%d)", st.Sink, st.Value)
}

// Step advances the token through the next node on its path, atomically
// updating the balancer toggle or sink counter, and returns the transition
// taken. Stepping a Done cursor panics: that is a driver bug.
func (s *State) Step(c *Cursor) Step {
	if c.Done {
		panic("network: Step on completed token")
	}
	var to Endpoint
	switch c.At.Kind {
	case KindSource:
		to = s.net.inputTo[c.At.Index]
	case KindBalancer:
		to = s.net.outTo[c.At.Index][c.At.Port]
	default:
		panic(fmt.Sprintf("network: token on invalid endpoint %v", c.At))
	}
	switch to.Kind {
	case KindBalancer:
		b := to.Index
		out := s.balState[b]
		s.balState[b] = (out + 1) % s.net.Balancer(b).FanOut
		s.balIn[b][to.Port]++
		s.balOut[b][out]++
		c.At = Endpoint{Kind: KindBalancer, Index: b, Port: out}
		c.Steps++
		return Step{Kind: StepBalancer, Balancer: b, InPort: to.Port, OutPort: out}
	case KindSink:
		j := to.Index
		v := s.counterNext[j]
		s.counterNext[j] += int64(s.net.FanOut())
		s.sinkIn[j]++
		s.inFlight--
		c.Done = true
		c.Value = v
		c.Steps++
		return Step{Kind: StepCounter, Sink: j, Value: v}
	default:
		panic(fmt.Sprintf("network: wire into invalid endpoint %v", to))
	}
}

// Traverse shepherds one token synchronously from input wire i to its
// counter and returns the value obtained. It is the shared-memory traversal
// loop of Section 2.7, collapsed to a single caller.
func (s *State) Traverse(i int) int64 {
	c := s.Start(i)
	for !c.Done {
		s.Step(c)
	}
	return c.Value
}

// TraversePath is Traverse but also returns the sequence of transitions.
func (s *State) TraversePath(i int) (int64, []Step) {
	c := s.Start(i)
	steps := make([]Step, 0, s.net.Depth()+1)
	for !c.Done {
		steps = append(steps, s.Step(c))
	}
	return c.Value, steps
}

// CheckStepSequence verifies the step property over a vector of per-wire
// output counts: for every j < k, 0 ≤ y_j − y_k ≤ 1.
func CheckStepSequence(counts []int64) error {
	for j := 0; j < len(counts); j++ {
		for k := j + 1; k < len(counts); k++ {
			d := counts[j] - counts[k]
			if d < 0 || d > 1 {
				return fmt.Errorf("step property violated: y[%d]=%d, y[%d]=%d", j, counts[j], k, counts[k])
			}
		}
	}
	return nil
}

// VerifyQuiescent checks, at a quiescent state, the paper's per-balancer
// and network-level properties: conservation (safety + liveness fixed
// point: tokens in == tokens out everywhere) and the step property at every
// balancer and at the network outputs.
func (s *State) VerifyQuiescent() error {
	if !s.Quiescent() {
		return fmt.Errorf("%w: %d tokens in flight", ErrNotQuiescent, s.inFlight)
	}
	for b := range s.balIn {
		var in, out int64
		for _, x := range s.balIn[b] {
			in += x
		}
		for _, y := range s.balOut[b] {
			out += y
		}
		if in != out {
			return fmt.Errorf("balancer %d not conserved at quiescence: in %d, out %d", b, in, out)
		}
		if err := CheckStepSequence(s.balOut[b]); err != nil {
			return fmt.Errorf("balancer %d: %w", b, err)
		}
	}
	var in, out int64
	for _, x := range s.inCount {
		in += x
	}
	for _, y := range s.sinkIn {
		out += y
	}
	if in != out {
		return fmt.Errorf("network not conserved at quiescence: in %d, out %d", in, out)
	}
	return nil
}

// VerifyStepProperty checks the network-level step property at quiescence:
// for output wires j < k, 0 ≤ y_j − y_k ≤ 1. This is the defining property
// of a counting network.
func (s *State) VerifyStepProperty() error {
	if !s.Quiescent() {
		return fmt.Errorf("%w: %d tokens in flight", ErrNotQuiescent, s.inFlight)
	}
	return CheckStepSequence(s.sinkIn)
}

// RunSequential pushes tokens one at a time through the network, entering
// on the given input wires in order, and returns the values obtained.
func RunSequential(s *State, inputs []int) []int64 {
	values := make([]int64, len(inputs))
	for i, in := range inputs {
		values[i] = s.Traverse(in)
	}
	return values
}

// RunInterleaved starts one token per entry of inputs and interleaves their
// single steps using the supplied random source until all complete,
// returning each token's value (indexed like inputs). The interleaving is
// deterministic for a fixed seed, which makes failures reproducible.
//
// Together with VerifyStepProperty this implements the quantification "in
// any execution, at any quiescent state" over randomly sampled executions.
func RunInterleaved(s *State, inputs []int, rng *rand.Rand) []int64 {
	cursors := make([]*Cursor, len(inputs))
	active := make([]int, 0, len(inputs))
	for i, in := range inputs {
		cursors[i] = s.Start(in)
		active = append(active, i)
	}
	for len(active) > 0 {
		pick := rng.Intn(len(active))
		idx := active[pick]
		s.Step(cursors[idx])
		if cursors[idx].Done {
			active[pick] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
	values := make([]int64, len(inputs))
	for i, c := range cursors {
		values[i] = c.Value
	}
	return values
}

// VerifyCounting drives numTokens tokens from the given input wires (cycled
// if shorter than numTokens) through a fresh state using random
// interleaving, then checks quiescent conservation, the step property, and
// that the values handed out are exactly 0..numTokens-1 with no duplicates
// or gaps (Section 2.7's "all consecutive values will be assigned").
func VerifyCounting(net *Network, numTokens int, inputWires []int, rng *rand.Rand) error {
	if len(inputWires) == 0 {
		return fmt.Errorf("%w: no input wires", ErrBadEndpoint)
	}
	s := NewState(net)
	inputs := make([]int, numTokens)
	for i := range inputs {
		inputs[i] = inputWires[i%len(inputWires)]
	}
	values := RunInterleaved(s, inputs, rng)
	if err := s.VerifyQuiescent(); err != nil {
		return err
	}
	if err := s.VerifyStepProperty(); err != nil {
		return err
	}
	seen := make([]bool, numTokens)
	for _, v := range values {
		if v < 0 || v >= int64(numTokens) {
			return fmt.Errorf("value %d outside 0..%d", v, numTokens-1)
		}
		if seen[v] {
			return fmt.Errorf("duplicate value %d", v)
		}
		seen[v] = true
	}
	return nil
}
