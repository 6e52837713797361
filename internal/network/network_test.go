package network

import (
	"errors"
	"reflect"
	"testing"
)

// twoByTwo builds the minimal counting network: a single (2,2)-balancer,
// i.e. B(2).
func twoByTwo(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder(2, 2)
	bal := b.AddBalancer(2, 2)
	b.ConnectInput(0, Endpoint{Kind: KindBalancer, Index: bal, Port: 0})
	b.ConnectInput(1, Endpoint{Kind: KindBalancer, Index: bal, Port: 1})
	b.Connect(bal, 0, Endpoint{Kind: KindSink, Index: 0})
	b.Connect(bal, 1, Endpoint{Kind: KindSink, Index: 1})
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n
}

func TestBuilderSingleBalancer(t *testing.T) {
	n := twoByTwo(t)
	if got, want := n.FanIn(), 2; got != want {
		t.Errorf("FanIn = %d, want %d", got, want)
	}
	if got, want := n.FanOut(), 2; got != want {
		t.Errorf("FanOut = %d, want %d", got, want)
	}
	if got, want := n.Size(), 1; got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
	if got, want := n.Depth(), 1; got != want {
		t.Errorf("Depth = %d, want %d", got, want)
	}
	if got, want := n.Shallowness(), 1; got != want {
		t.Errorf("Shallowness = %d, want %d", got, want)
	}
	if !n.Uniform() {
		t.Error("Uniform = false, want true")
	}
	if !n.FullyConnected() {
		t.Error("FullyConnected = false, want true")
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func() (*Network, error)
		want  error
	}{
		{
			name: "bad shape",
			build: func() (*Network, error) {
				return NewBuilder(0, 2).Build()
			},
			want: ErrBadShape,
		},
		{
			name: "bad balancer shape",
			build: func() (*Network, error) {
				b := NewBuilder(1, 1)
				b.AddBalancer(0, 1)
				return b.Build()
			},
			want: ErrBadShape,
		},
		{
			name: "input unwired",
			build: func() (*Network, error) {
				b := NewBuilder(2, 2)
				bal := b.AddBalancer(2, 2)
				b.ConnectInput(0, Endpoint{Kind: KindBalancer, Index: bal, Port: 0})
				b.Connect(bal, 0, Endpoint{Kind: KindSink, Index: 0})
				b.Connect(bal, 1, Endpoint{Kind: KindSink, Index: 1})
				return b.Build()
			},
			want: ErrPortUnwired,
		},
		{
			name: "output port unwired",
			build: func() (*Network, error) {
				b := NewBuilder(2, 2)
				bal := b.AddBalancer(2, 2)
				b.ConnectInput(0, Endpoint{Kind: KindBalancer, Index: bal, Port: 0})
				b.ConnectInput(1, Endpoint{Kind: KindBalancer, Index: bal, Port: 1})
				b.Connect(bal, 0, Endpoint{Kind: KindSink, Index: 0})
				return b.Build()
			},
			want: ErrPortUnwired,
		},
		{
			name: "input rewired",
			build: func() (*Network, error) {
				b := NewBuilder(2, 2)
				bal := b.AddBalancer(2, 2)
				b.ConnectInput(0, Endpoint{Kind: KindBalancer, Index: bal, Port: 0})
				b.ConnectInput(0, Endpoint{Kind: KindBalancer, Index: bal, Port: 1})
				return b.Build()
			},
			want: ErrPortRewired,
		},
		{
			name: "balancer port fed twice",
			build: func() (*Network, error) {
				b := NewBuilder(2, 2)
				bal := b.AddBalancer(2, 2)
				b.ConnectInput(0, Endpoint{Kind: KindBalancer, Index: bal, Port: 0})
				b.ConnectInput(1, Endpoint{Kind: KindBalancer, Index: bal, Port: 0})
				b.Connect(bal, 0, Endpoint{Kind: KindSink, Index: 0})
				b.Connect(bal, 1, Endpoint{Kind: KindSink, Index: 1})
				return b.Build()
			},
			want: ErrPortRewired,
		},
		{
			name: "sink fed twice",
			build: func() (*Network, error) {
				b := NewBuilder(2, 2)
				bal := b.AddBalancer(2, 2)
				b.ConnectInput(0, Endpoint{Kind: KindBalancer, Index: bal, Port: 0})
				b.ConnectInput(1, Endpoint{Kind: KindBalancer, Index: bal, Port: 1})
				b.Connect(bal, 0, Endpoint{Kind: KindSink, Index: 0})
				b.Connect(bal, 1, Endpoint{Kind: KindSink, Index: 0})
				return b.Build()
			},
			want: ErrPortRewired,
		},
		{
			name: "cycle",
			build: func() (*Network, error) {
				b := NewBuilder(1, 1)
				b1 := b.AddBalancer(2, 2)
				b2 := b.AddBalancer(2, 2)
				b.ConnectInput(0, Endpoint{Kind: KindBalancer, Index: b1, Port: 0})
				b.Connect(b1, 0, Endpoint{Kind: KindBalancer, Index: b2, Port: 0})
				b.Connect(b1, 1, Endpoint{Kind: KindBalancer, Index: b2, Port: 1})
				b.Connect(b2, 0, Endpoint{Kind: KindBalancer, Index: b1, Port: 1})
				b.Connect(b2, 1, Endpoint{Kind: KindSink, Index: 0})
				return b.Build()
			},
			want: ErrCycle,
		},
		{
			name: "bad endpoint index",
			build: func() (*Network, error) {
				b := NewBuilder(1, 1)
				bal := b.AddBalancer(1, 1)
				b.ConnectInput(0, Endpoint{Kind: KindBalancer, Index: bal + 7, Port: 0})
				b.Connect(bal, 0, Endpoint{Kind: KindSink, Index: 0})
				return b.Build()
			},
			want: ErrBadEndpoint,
		},
		{
			name: "bad endpoint kind",
			build: func() (*Network, error) {
				b := NewBuilder(1, 1)
				bal := b.AddBalancer(1, 1)
				b.ConnectInput(0, Endpoint{Kind: KindSource, Index: 0})
				b.Connect(bal, 0, Endpoint{Kind: KindSink, Index: 0})
				return b.Build()
			},
			want: ErrBadEndpoint,
		},
		{
			name: "connect out of range port",
			build: func() (*Network, error) {
				b := NewBuilder(1, 1)
				bal := b.AddBalancer(1, 1)
				b.ConnectInput(0, Endpoint{Kind: KindBalancer, Index: bal, Port: 0})
				b.Connect(bal, 3, Endpoint{Kind: KindSink, Index: 0})
				return b.Build()
			},
			want: ErrBadEndpoint,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.build()
			if !errors.Is(err, tt.want) {
				t.Fatalf("Build error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestEndpointString(t *testing.T) {
	tests := []struct {
		e    Endpoint
		want string
	}{
		{Endpoint{Kind: KindSource, Index: 3}, "in[3]"},
		{Endpoint{Kind: KindSink, Index: 0}, "out[0]"},
		{Endpoint{Kind: KindBalancer, Index: 2, Port: 1}, "bal[2].1"},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("%#v.String() = %q, want %q", tt.e, got, tt.want)
		}
	}
}

func TestNodeKindString(t *testing.T) {
	if KindSource.String() != "source" || KindBalancer.String() != "balancer" || KindSink.String() != "sink" {
		t.Error("NodeKind strings wrong")
	}
	if NodeKind(99).String() != "NodeKind(99)" {
		t.Errorf("unknown kind string = %q", NodeKind(99).String())
	}
}

// TestBalancerRoundRobin checks the Figure 1 semantics: a (3,3)-balancer
// forwards successive tokens to output wires 1, 2, 3, 1, 2, ... regardless
// of input wire.
func TestBalancerRoundRobin(t *testing.T) {
	b := NewBuilder(3, 3)
	bal := b.AddBalancer(3, 3)
	for i := 0; i < 3; i++ {
		b.ConnectInput(i, Endpoint{Kind: KindBalancer, Index: bal, Port: i})
		b.Connect(bal, i, Endpoint{Kind: KindSink, Index: i})
	}
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := NewState(n)
	inputs := []int{0, 0, 2, 1, 1, 1, 2}
	for k, in := range inputs {
		v, steps := s.TraversePath(in)
		if len(steps) != 2 {
			t.Fatalf("token %d: %d steps, want 2", k, len(steps))
		}
		if got, want := steps[0].OutPort, k%3; got != want {
			t.Errorf("token %d exited port %d, want %d", k, got, want)
		}
		if got, want := v, int64(k); got != want {
			t.Errorf("token %d got value %d, want %d", k, got, want)
		}
	}
	// 7 tokens leave y = (3, 2, 2): conserved and step-shaped.
	if err := s.VerifyQuiescent(); err != nil {
		t.Errorf("VerifyQuiescent: %v", err)
	}
	if err := s.VerifyStepProperty(); err != nil {
		t.Errorf("VerifyStepProperty: %v", err)
	}
}

func TestTraverseValues(t *testing.T) {
	n := twoByTwo(t)
	s := NewState(n)
	want := []int64{0, 1, 2, 3, 4, 5}
	for i, w := range want {
		if got := s.Traverse(i % 2); got != w {
			t.Errorf("token %d: value %d, want %d", i, got, w)
		}
	}
	if err := s.VerifyQuiescent(); err != nil {
		t.Errorf("VerifyQuiescent: %v", err)
	}
	if err := s.VerifyStepProperty(); err != nil {
		t.Errorf("VerifyStepProperty: %v", err)
	}
	if got := s.SinkCount(0); got != 3 {
		t.Errorf("SinkCount(0) = %d, want 3", got)
	}
	if got := s.InputCount(0); got != 3 {
		t.Errorf("InputCount(0) = %d, want 3", got)
	}
}

func TestCheckStepSequence(t *testing.T) {
	tests := []struct {
		name   string
		counts []int64
		ok     bool
	}{
		{"empty", nil, true},
		{"flat", []int64{2, 2, 2, 2}, true},
		{"step", []int64{3, 3, 2, 2}, true},
		{"single step", []int64{1, 0}, true},
		{"gap two", []int64{2, 0}, false},
		{"increasing", []int64{0, 1}, false},
		{"late bump", []int64{1, 1, 2}, false},
		{"valid long", []int64{5, 5, 5, 4, 4, 4, 4, 4}, true},
		{"invalid middle", []int64{5, 4, 5, 4}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := CheckStepSequence(tt.counts)
			if (err == nil) != tt.ok {
				t.Errorf("CheckStepSequence(%v) error = %v, want ok=%v", tt.counts, err, tt.ok)
			}
		})
	}
}

// TestSinkCountsOf: the counts recovered from a run's values agree with
// the sink counters of a State that handed those values out.
func TestSinkCountsOf(t *testing.T) {
	n := twoByTwo(t)
	s := NewState(n)
	var vals []int64
	for k := 0; k < 5; k++ {
		vals = append(vals, s.Traverse(k%n.FanIn()))
	}
	got, want := SinkCountsOf(vals, n.FanOut()), s.SinkCounts()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SinkCountsOf(%v) = %v, State.SinkCounts = %v", vals, got, want)
	}
	if err := CheckStepSequence(got); err != nil {
		t.Error(err)
	}
}

func TestStateClone(t *testing.T) {
	n := twoByTwo(t)
	s := NewState(n)
	s.Traverse(0)
	c := s.Clone()
	if got := c.Traverse(0); got != 1 {
		t.Errorf("clone continues at %d, want 1", got)
	}
	// The original must be unaffected by the clone's traversal.
	if got := s.Traverse(0); got != 1 {
		t.Errorf("original continues at %d, want 1", got)
	}
	if s.BalancerState(0) != c.BalancerState(0) {
		t.Error("states diverged structurally after symmetric operations")
	}
}

func TestStepPanics(t *testing.T) {
	n := twoByTwo(t)
	s := NewState(n)
	c := s.Start(0)
	for !c.Done {
		s.Step(c)
	}
	defer func() {
		if recover() == nil {
			t.Error("Step on Done cursor did not panic")
		}
	}()
	s.Step(c)
}

func TestCursorProgress(t *testing.T) {
	n := twoByTwo(t)
	s := NewState(n)
	c := s.Start(1)
	if c.Done || c.Steps != 0 {
		t.Fatal("fresh cursor should be at layer 0")
	}
	if s.InFlight() != 1 || s.Quiescent() {
		t.Error("one token should be in flight")
	}
	st := s.Step(c)
	if st.Kind != StepBalancer || c.Steps != 1 {
		t.Errorf("first step = %v (steps %d), want balancer step", st, c.Steps)
	}
	st = s.Step(c)
	if st.Kind != StepCounter || !c.Done || c.Value != 0 {
		t.Errorf("second step = %v, done=%v value=%d; want counter step with value 0", st, c.Done, c.Value)
	}
	if !s.Quiescent() {
		t.Error("network should be quiescent")
	}
}

func TestStepString(t *testing.T) {
	b := Step{Kind: StepBalancer, Balancer: 3, InPort: 0, OutPort: 1}
	if got, want := b.String(), "BAL(b3, in0→out1)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	c := Step{Kind: StepCounter, Sink: 2, Value: 10}
	if got, want := c.String(), "COUNT(c2, v=10)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
