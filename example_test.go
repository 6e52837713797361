package countingnet_test

// Godoc examples for the public facade: small, deterministic programs a
// downstream user can copy.

import (
	"fmt"

	countingnet "repro"
)

// The shortest useful program: build a network and count sequentially.
func Example() {
	spec := countingnet.MustBitonic(4)
	st := countingnet.NewState(spec)
	for i := 0; i < 4; i++ {
		fmt.Print(st.Traverse(i), " ")
	}
	fmt.Println()
	// Output: 0 1 2 3
}

// ExampleBitonic shows the structural parameters of B(8).
func ExampleBitonic() {
	spec, _, err := countingnet.Bitonic(8)
	if err != nil {
		panic(err)
	}
	fmt.Printf("depth %d, size %d, uniform %v\n", spec.Depth(), spec.Size(), spec.Uniform())
	// Output: depth 6, size 24, uniform true
}

// ExampleComputeSplitSequence reproduces Proposition 5.9 on B(16).
func ExampleComputeSplitSequence() {
	seq, err := countingnet.ComputeSplitSequence(countingnet.MustBitonic(16))
	if err != nil {
		panic(err)
	}
	fmt.Printf("sp = %d, continuously complete = %v\n", seq.SplitNumber(), seq.ContinuouslyComplete)
	// Output: sp = 4, continuously complete = true
}

// ExampleRun executes a two-token timed schedule and checks consistency.
func ExampleRun() {
	spec := countingnet.MustBitonic(4)
	tr, err := countingnet.Run(spec, []countingnet.TokenSpec{
		{Process: 0, Input: 0, Enter: 0, Delay: countingnet.ConstantDelay(1)},
		{Process: 1, Input: 1, Enter: 10, Delay: countingnet.ConstantDelay(1)},
	})
	if err != nil {
		panic(err)
	}
	ops := tr.Ops()
	fmt.Println(countingnet.Linearizable(ops), countingnet.SequentiallyConsistent(ops))
	// Output: true true
}

// ExampleProposition53Waves replays the paper's three-wave adversary.
func ExampleProposition53Waves() {
	spec := countingnet.MustBitonic(8)
	seq, err := countingnet.ComputeSplitSequence(spec)
	if err != nil {
		panic(err)
	}
	res, err := countingnet.Proposition53Waves(spec, seq, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("F_nl = %.4f, F_nsc = %.4f\n",
		res.Fractions.NonLinFraction(), res.Fractions.NonSCFraction())
	// Output: F_nl = 0.3333, F_nsc = 0.3333
}

// ExampleSufficientSCLocal evaluates the paper's Theorem 4.1 predicate.
func ExampleSufficientSCLocal() {
	spec := countingnet.MustBitonic(8) // d(G) = 6
	cond := countingnet.Timing{CMin: 1, CMax: 3, CL: 7}
	fmt.Println(countingnet.SufficientSCLocal(spec, cond))
	// Output: true
}

// ExampleMustCompile counts concurrently through the lock-free runtime.
func ExampleMustCompile() {
	ctr := countingnet.MustCompile(countingnet.MustBitonic(8))
	sum := int64(0)
	for i := 0; i < 10; i++ {
		sum += ctr.Inc(i)
	}
	fmt.Println(sum) // 0+1+...+9
	// Output: 45
}

// ExampleSimulateContention runs the queueing model at saturation: the
// central counter is pinned at its one location's capacity while B(16)
// spreads the same load over its first layer.
func ExampleSimulateContention() {
	cfg := countingnet.PerfConfig{
		Processes: 64, Ops: 1000, Warmup: 200, ServiceTime: 1, Seed: 1,
	}
	central := countingnet.SimulateContention(countingnet.CentralObject{}, cfg)
	bitonic := countingnet.SimulateContention(countingnet.NewNetworkObject(countingnet.MustBitonic(16)), cfg)
	fmt.Printf("central counter saturates at %.0f ops per service time\n", central.Throughput)
	fmt.Printf("B(16) serves %.1f\n", bitonic.Throughput)
	// Output:
	// central counter saturates at 1 ops per service time
	// B(16) serves 4.7
}
