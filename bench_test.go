package countingnet

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md's experiment index): each Benchmark below re-runs the
// corresponding reproduction and reports its headline quantity through
// b.ReportMetric, so `go test -bench . -benchmem` prints the same
// rows/series the paper reports. Absolute times are machine-dependent;
// the reported metrics are the paper's own quantities (fractions, depths,
// thresholds) and must match it exactly.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/consistency"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Schedules = 10
	return cfg
}

func runExperiment(b *testing.B, run func(core.Config) (core.Experiment, error)) {
	b.Helper()
	cfg := benchConfig()
	var exp core.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		exp, err = run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !exp.Pass() {
		b.Fatalf("experiment failed:\n%s", exp.Format())
	}
	b.ReportMetric(float64(len(exp.Rows)), "rows")
}

// BenchmarkFigure1Balancer — Figure 1: (3,3)-balancer round-robin.
func BenchmarkFigure1Balancer(b *testing.B) {
	spec, _, err := construct.SingleBalancer(3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		st := network.NewState(spec)
		for k := 0; k < 9; k++ {
			if v := st.Traverse(k % 3); v != int64(k) {
				b.Fatalf("token %d got %d", k, v)
			}
		}
	}
}

// BenchmarkFigure2Network — Figure 2: the (6,6) mixed-balancer network.
func BenchmarkFigure2Network(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec, _, err := construct.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if spec.FanIn() != 6 || spec.FanOut() != 6 {
			b.Fatal("wrong fan")
		}
	}
}

// BenchmarkFigure4Bitonic — Figures 3/4: construct and count-check B(w).
func BenchmarkFigure4Bitonic(b *testing.B) {
	for _, w := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := construct.MustBitonic(w)
				if spec.Depth() != construct.BitonicDepth(w) {
					b.Fatal("depth mismatch")
				}
			}
			b.ReportMetric(float64(construct.BitonicDepth(w)), "depth")
		})
	}
}

// BenchmarkFigure5Block — Figure 5: both block constructions ≅ merger.
func BenchmarkFigure5Block(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oe, _, err := construct.Block(8, construct.BlockOddEven)
		if err != nil {
			b.Fatal(err)
		}
		tb, _, err := construct.Block(8, construct.BlockTopBottom)
		if err != nil {
			b.Fatal(err)
		}
		m, _, err := construct.Merger(8)
		if err != nil {
			b.Fatal(err)
		}
		if !construct.Isomorphic(oe, tb) || !construct.Isomorphic(tb, m) {
			b.Fatal("isomorphism failed")
		}
	}
}

// BenchmarkFigure6Periodic — Figure 6: construct P(w).
func BenchmarkFigure6Periodic(b *testing.B) {
	for _, w := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := construct.MustPeriodic(w)
				if spec.Depth() != construct.PeriodicDepth(w) {
					b.Fatal("depth mismatch")
				}
			}
			b.ReportMetric(float64(construct.PeriodicDepth(w)), "depth")
		})
	}
}

// BenchmarkFigure7SplitSequence — Figure 7: the split-sequence structure.
func BenchmarkFigure7SplitSequence(b *testing.B) {
	spec := construct.MustBitonic(16)
	var seq *topology.SplitSequence
	var err error
	for i := 0; i < b.N; i++ {
		seq, err = topology.ComputeSplitSequence(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(seq.SplitNumber()), "sp")
}

// BenchmarkTable1Conditions — Table 1: sweep + witness every row.
func BenchmarkTable1Conditions(b *testing.B) {
	runExperiment(b, core.RunTable1)
}

// BenchmarkLemma31Modular — Lemma 3.1: escort-wave insertion.
func BenchmarkLemma31Modular(b *testing.B) {
	runExperiment(b, core.RunLemma31)
}

// BenchmarkTheorem32Transform — Theorem 3.2: non-lin → non-SC.
func BenchmarkTheorem32Transform(b *testing.B) {
	runExperiment(b, core.RunTheorem32)
}

// BenchmarkTheorem41SeqConsistency — Theorem 4.1: C_L sweeps.
func BenchmarkTheorem41SeqConsistency(b *testing.B) {
	runExperiment(b, core.RunTheorem41)
}

// BenchmarkCorollary45Distinguish — Corollary 4.5.
func BenchmarkCorollary45Distinguish(b *testing.B) {
	runExperiment(b, core.RunCorollary45)
}

// BenchmarkProposition53Waves — Propositions 5.2/5.3: the 1/3 bounds.
func BenchmarkProposition53Waves(b *testing.B) {
	spec := construct.MustBitonic(16)
	seq, err := topology.ComputeSplitSequence(spec)
	if err != nil {
		b.Fatal(err)
	}
	var res *core.WaveResult
	for i := 0; i < b.N; i++ {
		res, err = core.Proposition53Waves(spec, seq, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Fractions.NonLinFraction(), "F_nl")
	b.ReportMetric(res.Fractions.NonSCFraction(), "F_nsc")
}

// BenchmarkTheorem54UpperBound — Theorem 5.4 probes.
func BenchmarkTheorem54UpperBound(b *testing.B) {
	runExperiment(b, core.RunTheorem54)
}

// BenchmarkProposition56SplitDepth — Propositions 5.6/5.8 formulas.
func BenchmarkProposition56SplitDepth(b *testing.B) {
	for _, w := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			specB := construct.MustBitonic(w)
			specP := construct.MustPeriodic(w)
			for i := 0; i < b.N; i++ {
				if sd, _ := topology.Analyze(specB).SplitDepth(); sd != core.SplitDepthBitonic(w) {
					b.Fatal("bitonic split depth mismatch")
				}
				if sd, _ := topology.Analyze(specP).SplitDepth(); sd != core.SplitDepthPeriodic(w) {
					b.Fatal("periodic split depth mismatch")
				}
			}
			b.ReportMetric(float64(core.SplitDepthBitonic(w)), "sd_B")
			b.ReportMetric(float64(core.SplitDepthPeriodic(w)), "sd_P")
		})
	}
}

// BenchmarkProposition59SplitNumber — Propositions 5.9/5.10.
func BenchmarkProposition59SplitNumber(b *testing.B) {
	runExperiment(b, core.RunSplitStructure)
}

// BenchmarkTheorem511Waves — Theorem 5.11 per level, the paper's main
// lower-bound series: F_nl and F_nsc per ℓ.
func BenchmarkTheorem511Waves(b *testing.B) {
	spec := construct.MustBitonic(16)
	seq, err := topology.ComputeSplitSequence(spec)
	if err != nil {
		b.Fatal(err)
	}
	for l := 1; l <= seq.SplitNumber(); l++ {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			var res *core.WaveResult
			for i := 0; i < b.N; i++ {
				res, err = core.Theorem511Waves(spec, seq, l, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Fractions.NonLinFraction(), "F_nl")
			b.ReportMetric(res.Fractions.NonSCFraction(), "F_nsc")
			b.ReportMetric(res.Timing.Ratio(), "ratio")
		})
	}
}

// BenchmarkCorollary512513 — the ℓ = lg w instantiation.
func BenchmarkCorollary512513(b *testing.B) {
	runExperiment(b, core.RunCorollary512513)
}

// BenchmarkBarrierApplication — Section 1.1: barrier rounds on a
// counting-network counter.
func BenchmarkBarrierApplication(b *testing.B) {
	const procs = 8
	ctr := runtime.MustCompile(construct.MustBitonic(procs))
	w := runtime.Workload{Workers: procs, OpsPerWorker: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := w.Run(ctr)
		max := int64(-1)
		for _, op := range ops {
			if op.Values[0] > max {
				max = op.Values[0]
			}
		}
		if want := int64((i+1)*procs - 1); max != want {
			b.Fatalf("round %d: max value %d, want %d", i, max, want)
		}
	}
}

// The throughput family below is the AHS94-motivation comparison
// (experiment E11; `go test -bench Throughput .` prints the variants ×
// goroutines table): every counter variant — counting networks under
// FAA, CAS and batched traversal, and the centralized/combining baselines
// — measured at fixed goroutine counts. ns/op is wall time per obtained
// value aggregated across all goroutines, so lower is better and the
// series across g exposes each structure's contention behaviour. On boxes
// with few cores the centralized counters dominate, as the paper predicts;
// the batch variant wins everywhere because it amortises the traversal.

// tpWorker hands one goroutine its per-op increment function; separate
// workers get separate closures so batch variants can keep local blocks.
type tpWorker func() int64

// tpCounter builds per-goroutine workers over one shared structure.
type tpCounter interface {
	worker(wire int) tpWorker
}

// incThroughput adapts any Counter: every op is one Inc.
type incThroughput struct{ c runtime.Counter }

func (a incThroughput) worker(wire int) tpWorker {
	return func() int64 { return a.c.Inc(wire) }
}

// casThroughput is the CAS-toggle ablation of a compiled network.
type casThroughput struct{ n *runtime.Network }

func (a casThroughput) worker(wire int) tpWorker {
	return func() int64 { return a.n.IncCAS(wire) }
}

// batchThroughput draws values through IncBatch in blocks of size block;
// each worker consumes its own block before reserving the next, so one op
// still yields exactly one value.
type batchThroughput struct {
	n     *runtime.Network
	block int
}

func (a batchThroughput) worker(wire int) tpWorker {
	var buf []int64
	return func() int64 {
		if len(buf) == 0 {
			buf = runtime.ExpandRanges(buf[:0], a.n.IncBatch(wire, a.block))
		}
		v := buf[0]
		buf = buf[1:]
		return v
	}
}

// benchThroughput runs b.N increments split across g goroutines.
func benchThroughput(b *testing.B, c tpCounter, g int) {
	b.Helper()
	var wg sync.WaitGroup
	var sink atomic.Int64
	b.ResetTimer()
	for w := 0; w < g; w++ {
		ops := b.N / g
		if w < b.N%g {
			ops++
		}
		wg.Add(1)
		go func(wire, ops int) {
			defer wg.Done()
			op := c.worker(wire)
			var last int64
			for i := 0; i < ops; i++ {
				last = op()
			}
			sink.Store(last)
		}(w, ops)
	}
	wg.Wait()
}

func BenchmarkThroughput(b *testing.B) {
	bitonic := construct.MustBitonic(16)
	periodic := construct.MustPeriodic(16)
	variants := []struct {
		name string
		mk   func() tpCounter
	}{
		{"atomic", func() tpCounter { return incThroughput{new(runtime.AtomicCounter)} }},
		{"mutex", func() tpCounter { return incThroughput{new(runtime.MutexCounter)} }},
		{"queuelock", func() tpCounter { return incThroughput{new(runtime.QueueLockCounter)} }},
		{"combining-8", func() tpCounter { return incThroughput{runtime.NewCombiningTree(8)} }},
		{"diffracting-16", func() tpCounter {
			t, err := runtime.NewDiffractingTree(16)
			if err != nil {
				b.Fatal(err)
			}
			return incThroughput{t}
		}},
		{"bitonic-16-faa", func() tpCounter { return incThroughput{runtime.MustCompile(bitonic)} }},
		{"bitonic-16-cas", func() tpCounter { return casThroughput{runtime.MustCompile(bitonic)} }},
		{"bitonic-16-batch256", func() tpCounter { return batchThroughput{runtime.MustCompile(bitonic), 256} }},
		{"periodic-16-faa", func() tpCounter { return incThroughput{runtime.MustCompile(periodic)} }},
		{"periodic-16-cas", func() tpCounter { return casThroughput{runtime.MustCompile(periodic)} }},
		{"tree-16-faa", func() tpCounter { return incThroughput{runtime.MustCompile(construct.MustTree(16))} }},
	}
	for _, tc := range variants {
		for _, g := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/g=%d", tc.name, g), func(b *testing.B) {
				benchThroughput(b, tc.mk(), g)
			})
		}
	}
}

// BenchmarkIncOverhead — the telemetry overhead budget: Inc on B(8) with
// no observer (the nil-check fast path, which must not allocate) versus
// the same network with the sharded telemetry collector attached. The
// delta is the advertised cost of observability.
func BenchmarkIncOverhead(b *testing.B) {
	spec := construct.MustBitonic(8)
	variants := []struct {
		name string
		obs  func() runtime.Observer
	}{
		{"uninstrumented", func() runtime.Observer { return nil }},
		{"collector", func() runtime.Observer { return telemetry.NewCollectorFor(spec) }},
	}
	for _, tc := range variants {
		b.Run(tc.name, func(b *testing.B) {
			ctr := runtime.MustCompile(spec)
			if obs := tc.obs(); obs != nil {
				ctr.SetObserver(obs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctr.Inc(i & 7)
			}
		})
	}
}

// BenchmarkContentionModel — extension X2: the queueing-model series
// behind cmd/perfsim (throughput of B(16) vs the central counter at P=64).
func BenchmarkContentionModel(b *testing.B) {
	runExperiment(b, core.RunContentionModel)
}

// BenchmarkSmoothingPrefixes — extension X1.
func BenchmarkSmoothingPrefixes(b *testing.B) {
	runExperiment(b, core.RunSmoothingExtension)
}

// BenchmarkSimulator — cost of the timed-execution engine itself.
func BenchmarkSimulator(b *testing.B) {
	spec := construct.MustBitonic(16)
	cfg := sim.GenConfig{
		Processes: 8, TokensPerProcess: 16,
		CMin: 1, CMax: 4, CL: 2, CLJitter: 2, StartSpread: 30, Seed: 1,
	}
	specs, err := sim.Generate(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := sim.Run(spec, specs)
		if err != nil {
			b.Fatal(err)
		}
		_ = consistency.Measure(tr.Ops())
	}
}

// BenchmarkConsistencyCheckers — cost of the O(n log n) checkers.
func BenchmarkConsistencyCheckers(b *testing.B) {
	spec := construct.MustBitonic(8)
	cfg := sim.GenConfig{
		Processes: 16, TokensPerProcess: 64,
		CMin: 1, CMax: 8, StartSpread: 100, Seed: 7,
	}
	specs, err := sim.Generate(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.Run(spec, specs)
	if err != nil {
		b.Fatal(err)
	}
	ops := tr.Ops()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = consistency.Measure(ops)
	}
}
