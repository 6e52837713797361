package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/consistency"
	"repro/internal/construct"
	"repro/internal/network"
)

func TestRunSingleToken(t *testing.T) {
	net := construct.MustBitonic(4)
	tr, err := Run(net, []TokenSpec{{Process: 0, Input: 0, Enter: 10, Delay: ConstantDelay(2)}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tok := tr.Tokens[0]
	if tok.Value != 0 {
		t.Errorf("value = %d, want 0", tok.Value)
	}
	if got, want := len(tok.LayerTimes), net.Depth()+1; got != want {
		t.Errorf("layer times = %d, want %d", got, want)
	}
	if tok.In() != 10 {
		t.Errorf("t_in = %d, want 10", tok.In())
	}
	if want := Time(10 + 2*int64(net.Depth())); tok.Out() != want {
		t.Errorf("t_out = %d, want %d", tok.Out(), want)
	}
	if tok.EnterSeq != 0 || tok.ExitSeq != int64(net.Depth()) {
		t.Errorf("seqs = %d..%d, want 0..%d", tok.EnterSeq, tok.ExitSeq, net.Depth())
	}
}

// TestRunMatchesSequential: tokens scheduled strictly one after another
// obtain the sequential values 0, 1, 2, ...
func TestRunMatchesSequential(t *testing.T) {
	net := construct.MustBitonic(8)
	var specs []TokenSpec
	enter := Time(0)
	for k := 0; k < 20; k++ {
		specs = append(specs, TokenSpec{
			Process: k % 3,
			Input:   k % 3, // pinned: one wire per process
			Enter:   enter,
			Delay:   ConstantDelay(1),
		})
		enter += Time(net.Depth()) + 1
	}
	tr, err := Run(net, specs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for k, tok := range tr.Tokens {
		if tok.Value != int64(k) {
			t.Errorf("token %d got %d", k, tok.Value)
		}
	}
	ops := tr.Ops()
	if !consistency.Linearizable(ops) {
		t.Error("sequential schedule must be linearizable")
	}
	if !consistency.SequentiallyConsistent(ops) {
		t.Error("sequential schedule must be sequentially consistent")
	}
}

// TestRunCountsUnderConcurrency: arbitrary concurrent schedules still hand
// out exactly the values 0..N-1 at quiescence.
func TestRunCountsUnderConcurrency(t *testing.T) {
	for _, w := range []int{4, 8} {
		net := construct.MustBitonic(w)
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var specs []TokenSpec
			n := 30
			for k := 0; k < n; k++ {
				delays := make([]Time, net.Depth())
				for i := range delays {
					delays[i] = 1 + rng.Int63n(9)
				}
				specs = append(specs, TokenSpec{
					Process: 100 + k, // distinct processes: overlap allowed
					Input:   rng.Intn(w),
					Enter:   rng.Int63n(40),
					Delay:   SliceDelay(delays),
				})
			}
			tr, err := Run(net, specs)
			if err != nil {
				t.Fatalf("w=%d seed=%d: %v", w, seed, err)
			}
			seen := make([]bool, n)
			for _, tok := range tr.Tokens {
				if tok.Value < 0 || tok.Value >= int64(n) || seen[tok.Value] {
					t.Fatalf("w=%d seed=%d: bad value %d", w, seed, tok.Value)
				}
				seen[tok.Value] = true
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	net := construct.MustBitonic(4)
	tests := []struct {
		name  string
		specs []TokenSpec
		want  error
	}{
		{
			name:  "bad input wire",
			specs: []TokenSpec{{Input: 9, Delay: ConstantDelay(1)}},
			want:  ErrBadInput,
		},
		{
			name:  "missing delay",
			specs: []TokenSpec{{Input: 0}},
			want:  ErrMissingDelay,
		},
		{
			name:  "non-positive delay",
			specs: []TokenSpec{{Input: 0, Delay: ConstantDelay(0)}},
			want:  ErrBadDelay,
		},
		{
			name: "same-process overlap",
			specs: []TokenSpec{
				{Process: 1, Input: 0, Enter: 0, Delay: ConstantDelay(10)},
				{Process: 1, Input: 0, Enter: 5, Delay: ConstantDelay(10)},
			},
			want: ErrOverlap,
		},
		{
			name: "tie rank inversion",
			specs: []TokenSpec{
				{Process: 1, Input: 0, Enter: 0, Rank: 5, Delay: ConstantDelay(1)},
				{Process: 1, Input: 0, Enter: 3, Rank: 2, Delay: ConstantDelay(1)},
			},
			want: ErrOutOfOrder,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Run(net, tt.specs)
			if !errors.Is(err, tt.want) {
				t.Fatalf("Run error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestRunRequiresUniform(t *testing.T) {
	// A non-uniform network: inputs 0 and 1 pass through two balancers,
	// but input 2 leapfrogs straight into the second one.
	nb2 := network.NewBuilder(3, 2)
	x2 := nb2.AddBalancer(2, 2)
	y2 := nb2.AddBalancer(3, 2)
	nb2.ConnectInput(0, network.Endpoint{Kind: network.KindBalancer, Index: x2, Port: 0})
	nb2.ConnectInput(1, network.Endpoint{Kind: network.KindBalancer, Index: x2, Port: 1})
	nb2.ConnectInput(2, network.Endpoint{Kind: network.KindBalancer, Index: y2, Port: 2})
	nb2.Connect(x2, 0, network.Endpoint{Kind: network.KindBalancer, Index: y2, Port: 0})
	nb2.Connect(x2, 1, network.Endpoint{Kind: network.KindBalancer, Index: y2, Port: 1})
	nb2.Connect(y2, 0, network.Endpoint{Kind: network.KindSink, Index: 0})
	nb2.Connect(y2, 1, network.Endpoint{Kind: network.KindSink, Index: 1})
	nu, err := nb2.Build()
	if err != nil {
		t.Fatalf("build non-uniform: %v", err)
	}
	if nu.Uniform() {
		t.Fatal("network should be non-uniform")
	}
	if _, err := Run(nu, []TokenSpec{{Input: 0, Delay: ConstantDelay(1)}}); !errors.Is(err, ErrNotUniform) {
		t.Errorf("Run error = %v, want ErrNotUniform", err)
	}
}

func TestRankControlsTies(t *testing.T) {
	net := construct.MustBitonic(2)
	// Two tokens enter the single balancer at the same instant; the lower
	// rank must take the step first and receive value 0.
	for _, first := range []int{0, 1} {
		specs := []TokenSpec{
			{Process: 0, Input: 0, Enter: 0, Rank: 1, Delay: ConstantDelay(1)},
			{Process: 1, Input: 1, Enter: 0, Rank: 2, Delay: ConstantDelay(1)},
		}
		if first == 1 {
			specs[0].Rank, specs[1].Rank = 2, 1
		}
		tr, err := Run(net, specs)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Tokens[first].Value; got != 0 {
			t.Errorf("token with lower rank got %d, want 0", got)
		}
	}
}

func TestPiecewiseDelay(t *testing.T) {
	d := PiecewiseDelay(3, 10, 1)
	for l, want := range map[int]Time{1: 10, 2: 10, 3: 1, 4: 1} {
		if got := d(l); got != want {
			t.Errorf("delay(%d) = %d, want %d", l, got, want)
		}
	}
}

func TestMeasure(t *testing.T) {
	net := construct.MustBitonic(4) // depth 3
	specs := []TokenSpec{
		{Process: 0, Input: 0, Enter: 0, Delay: SliceDelay([]Time{2, 3, 4})},  // exits at 9
		{Process: 0, Input: 0, Enter: 14, Delay: SliceDelay([]Time{2, 2, 2})}, // C_L^0 = 5
		{Process: 1, Input: 1, Enter: 1, Delay: SliceDelay([]Time{5, 5, 5})},  // exits at 16
		{Process: 1, Input: 1, Enter: 18, Delay: SliceDelay([]Time{2, 2, 2})}, // C_L^1 = 2
	}
	tr, err := Run(net, specs)
	if err != nil {
		t.Fatal(err)
	}
	p := Measure(tr)
	if p.CMin != 2 || p.CMax != 5 {
		t.Errorf("c_min/c_max = %d/%d, want 2/5", p.CMin, p.CMax)
	}
	if got := p.CMinPerProcess[0]; got != 2 {
		t.Errorf("c_min^0 = %d, want 2", got)
	}
	if got := p.CMinPerProcess[1]; got != 2 {
		t.Errorf("c_min^1 = %d, want 2", got)
	}
	if !p.CL.Defined || p.CL.Value != 2 {
		t.Errorf("C_L = %+v, want 2", p.CL)
	}
	if got := p.CLPerProcess[0]; got != 5 {
		t.Errorf("C_L^0 = %d, want 5", got)
	}
	// Non-overlapping pairs: (tok0 out 9, tok1 in 14) gap 5;
	// (tok0 out 9, tok3 in 18) gap 9; (tok2 out 16, tok3 in 18) gap 2.
	if !p.CG.Defined || p.CG.Value != 2 {
		t.Errorf("C_g = %+v, want 2", p.CG)
	}
	if r := p.Ratio(); r != 2.5 {
		t.Errorf("ratio = %v, want 2.5", r)
	}
}

func TestMeasureSingleProcessSingleToken(t *testing.T) {
	net := construct.MustBitonic(2)
	tr, err := Run(net, []TokenSpec{{Process: 0, Input: 0, Enter: 0, Delay: ConstantDelay(3)}})
	if err != nil {
		t.Fatal(err)
	}
	p := Measure(tr)
	if p.CL.Defined {
		t.Error("C_L should be undefined with one token")
	}
	if p.CG.Defined {
		t.Error("C_g should be undefined with one token")
	}
	if p.CMin != 3 || p.CMax != 3 {
		t.Errorf("c_min/c_max = %d/%d, want 3/3", p.CMin, p.CMax)
	}
}

// TestGenerateHonoursCondition: generated schedules realise parameters
// within the configured bounds.
func TestGenerateHonoursCondition(t *testing.T) {
	net := construct.MustBitonic(8)
	for seed := int64(0); seed < 5; seed++ {
		cfg := GenConfig{
			Processes:        6,
			TokensPerProcess: 5,
			CMin:             2,
			CMax:             5,
			CL:               17,
			CLJitter:         4,
			StartSpread:      20,
			Seed:             seed,
		}
		specs, err := Generate(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) != 30 {
			t.Fatalf("generated %d specs, want 30", len(specs))
		}
		tr, err := Run(net, specs)
		if err != nil {
			t.Fatal(err)
		}
		p := Measure(tr)
		if p.CMin < cfg.CMin || p.CMax > cfg.CMax {
			t.Errorf("seed %d: delays [%d,%d] outside [%d,%d]", seed, p.CMin, p.CMax, cfg.CMin, cfg.CMax)
		}
		if !p.CL.Defined || p.CL.Value < cfg.CL {
			t.Errorf("seed %d: C_L = %+v, want ≥ %d", seed, p.CL, cfg.CL)
		}
		if p.CL.Value > cfg.CL+cfg.CLJitter {
			t.Errorf("seed %d: C_L = %d exceeds CL+jitter %d", seed, p.CL.Value, cfg.CL+cfg.CLJitter)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	net := construct.MustBitonic(4)
	bad := []GenConfig{
		{Processes: 0, TokensPerProcess: 1, CMin: 1, CMax: 2},
		{Processes: 1, TokensPerProcess: 0, CMin: 1, CMax: 2},
		{Processes: 1, TokensPerProcess: 1, CMin: 0, CMax: 2},
		{Processes: 1, TokensPerProcess: 1, CMin: 3, CMax: 2},
	}
	for i, cfg := range bad {
		if _, err := Generate(net, cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	net := construct.MustBitonic(4)
	cfg := GenConfig{Processes: 3, TokensPerProcess: 4, CMin: 1, CMax: 6, CL: 2, CLJitter: 3, StartSpread: 9, Seed: 42}
	s1, err := Generate(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Generate(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Run(net, s1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Run(net, s2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1.Tokens {
		if t1.Tokens[i].Value != t2.Tokens[i].Value {
			t.Fatalf("token %d: %d vs %d", i, t1.Tokens[i].Value, t2.Tokens[i].Value)
		}
	}
}

// TestTraceOps: conversion carries process, index and precedence.
func TestTraceOps(t *testing.T) {
	net := construct.MustBitonic(2)
	specs := []TokenSpec{
		{Process: 7, Input: 0, Enter: 0, Delay: ConstantDelay(1)},
		{Process: 7, Input: 0, Enter: 10, Delay: ConstantDelay(1)},
	}
	tr, err := Run(net, specs)
	if err != nil {
		t.Fatal(err)
	}
	ops := tr.Ops()
	if len(ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(ops))
	}
	if ops[0].Process != 7 || ops[0].Index != 0 || ops[1].Index != 1 {
		t.Errorf("ops metadata wrong: %+v", ops)
	}
	if !ops[0].CompletelyPrecedes(ops[1]) {
		t.Error("first token should completely precede second")
	}
	if ops[1].CompletelyPrecedes(ops[0]) {
		t.Error("second token should not precede first")
	}
	vals := tr.Values()
	if vals[0] != 0 || vals[1] != 1 {
		t.Errorf("values = %v", vals)
	}
}

// TestLockstepWaveRouting: a full wave of w simultaneous tokens occupies
// every wire of each layer, and leaves every balancer's toggle back at its
// pre-wave state (the escort-wave mechanism of Theorem 3.2's proof).
func TestLockstepWaveRouting(t *testing.T) {
	for _, w := range []int{4, 8} {
		net := construct.MustBitonic(w)
		var specs []TokenSpec
		for i := 0; i < w; i++ {
			specs = append(specs, TokenSpec{Process: i, Input: i, Enter: 0, Delay: ConstantDelay(1)})
		}
		tr, err := Run(net, specs)
		if err != nil {
			t.Fatal(err)
		}
		// The wave fills outputs 0..w-1 exactly.
		sinks := make([]bool, w)
		for _, tok := range tr.Tokens {
			if sinks[tok.Sink] {
				t.Fatalf("w=%d: sink %d hit twice", w, tok.Sink)
			}
			sinks[tok.Sink] = true
		}
	}
}

func TestRunManyWavesValuesExact(t *testing.T) {
	w := 8
	net := construct.MustBitonic(w)
	var specs []TokenSpec
	for wave := 0; wave < 5; wave++ {
		for i := 0; i < w; i++ {
			specs = append(specs, TokenSpec{
				Process: i, // same processes wave after wave
				Input:   i,
				Enter:   Time(wave * (net.Depth() + 2)),
				Delay:   ConstantDelay(1),
			})
		}
	}
	tr, err := Run(net, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Waves are separated (each exits before the next enters), so wave k's
	// values are exactly k·w..k·w+w-1, and the execution is linearizable.
	for i, tok := range tr.Tokens {
		wave := i / w
		if tok.Value < int64(wave*w) || tok.Value >= int64((wave+1)*w) {
			t.Errorf("token %d value %d outside wave %d range", i, tok.Value, wave)
		}
	}
	if !consistency.Linearizable(tr.Ops()) {
		t.Error("separated waves must be linearizable")
	}
}

func ExampleRun() {
	net := construct.MustBitonic(4)
	specs := []TokenSpec{
		{Process: 0, Input: 0, Enter: 0, Delay: ConstantDelay(1)},
		{Process: 1, Input: 1, Enter: 0, Delay: ConstantDelay(1)},
	}
	tr, _ := Run(net, specs)
	for _, tok := range tr.Tokens {
		fmt.Printf("process %d: value %d\n", tok.Process, tok.Value)
	}
	// Output:
	// process 0: value 0
	// process 1: value 1
}

func TestDriftDelay(t *testing.T) {
	base := ConstantDelay(4)
	d := DriftDelay(base, 3, 2) // ×1.5
	if got := d(1); got != 6 {
		t.Errorf("drifted delay = %d, want 6", got)
	}
	// Rounding up keeps delays positive.
	d2 := DriftDelay(ConstantDelay(1), 5, 4)
	if got := d2(1); got != 2 {
		t.Errorf("drifted delay = %d, want 2", got)
	}
	// Unit drift is the identity.
	d3 := DriftDelay(base, 1, 1)
	if got := d3(2); got != 4 {
		t.Errorf("unit drift = %d, want 4", got)
	}
}

func TestWirePinningEnforced(t *testing.T) {
	net := construct.MustBitonic(4)
	specs := []TokenSpec{
		{Process: 1, Input: 0, Enter: 0, Delay: ConstantDelay(1)},
		{Process: 1, Input: 2, Enter: 50, Delay: ConstantDelay(1)},
	}
	if _, err := Run(net, specs); !errors.Is(err, ErrWirePinning) {
		t.Errorf("err = %v, want ErrWirePinning", err)
	}
	// Same wire is fine.
	specs[1].Input = 0
	if _, err := Run(net, specs); err != nil {
		t.Errorf("pinned schedule rejected: %v", err)
	}
}
