package countingnet

// End-to-end tests of the public facade: a downstream user's view of the
// library, exercising every layer through the exported API only.

import (
	"math/rand"
	"strings"
	"testing"
)

func TestFacadeConstructAndCount(t *testing.T) {
	spec, layout, err := Bitonic(8)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Depth() != 6 || spec.Size() != 24 {
		t.Fatalf("B(8) shape wrong: depth %d size %d", spec.Depth(), spec.Size())
	}
	if layout == nil || layout.Lines != 8 {
		t.Fatal("layout missing")
	}
	rng := rand.New(rand.NewSource(1))
	if err := VerifyCounting(spec, 50, []int{0, 1, 2, 3, 4, 5, 6, 7}, rng); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCustomNetwork(t *testing.T) {
	// A user-built two-balancer pipeline via the public Builder API.
	b := NewBuilder(2, 2)
	x := b.AddBalancer(2, 2)
	y := b.AddBalancer(2, 2)
	b.ConnectInput(0, Endpoint{Kind: 2, Index: x, Port: 0}) // KindBalancer
	b.ConnectInput(1, Endpoint{Kind: 2, Index: x, Port: 1})
	b.Connect(x, 0, Endpoint{Kind: 2, Index: y, Port: 0})
	b.Connect(x, 1, Endpoint{Kind: 2, Index: y, Port: 1})
	b.Connect(y, 0, Endpoint{Kind: 3, Index: 0}) // KindSink
	b.Connect(y, 1, Endpoint{Kind: 3, Index: 1})
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(spec)
	for k := int64(0); k < 6; k++ {
		if v := st.Traverse(int(k) % 2); v != k {
			t.Fatalf("token %d got %d", k, v)
		}
	}
}

func TestFacadeTimedExecution(t *testing.T) {
	spec := MustBitonic(4)
	specs := []TokenSpec{
		{Process: 0, Input: 0, Enter: 0, Delay: ConstantDelay(2)},
		{Process: 1, Input: 1, Enter: 0, Delay: ConstantDelay(2)},
	}
	tr, err := Run(spec, specs)
	if err != nil {
		t.Fatal(err)
	}
	p := MeasureTrace(tr)
	if p.CMin != 2 || p.CMax != 2 {
		t.Fatalf("measured delays [%d,%d]", p.CMin, p.CMax)
	}
	ops := tr.Ops()
	if !Linearizable(ops) || !SequentiallyConsistent(ops) {
		t.Fatal("trivial schedule must be consistent")
	}
}

func TestFacadeTheory(t *testing.T) {
	spec := MustBitonic(8)
	an := Analyze(spec)
	seq, err := ComputeSplitSequence(spec)
	if err != nil {
		t.Fatal(err)
	}
	tm := DistinguishingTiming(spec, an)
	if !SufficientSCLocal(spec, tm) {
		t.Error("distinguishing timing must satisfy Theorem 4.1")
	}
	if NecessaryLinInfluence(spec, an.InfluenceRadius(), tm) {
		t.Error("distinguishing timing must violate the necessary bound")
	}
	res, err := Proposition53Waves(spec, seq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fractions.NonSC != 4 {
		t.Errorf("F_nsc count = %d, want 4", res.Fractions.NonSC)
	}
}

func TestFacadeConcurrentCounter(t *testing.T) {
	recs := Workload{Workers: 8, OpsPerWorker: 100}.Run(MustCompile(MustBitonic(8)))
	if rep := Audit(recs, int64(len(recs))); rep.Duplicates != 0 || rep.OutOfRange != 0 {
		t.Fatalf("values are not exactly 0..%d: %+v", len(recs)-1, rep)
	}
}

func TestFacadeRender(t *testing.T) {
	spec, layout, err := Bitonic(4)
	if err != nil {
		t.Fatal(err)
	}
	if out := Render(spec, layout); !strings.Contains(out, "in0") {
		t.Error("render missing labels")
	}
	if out := Describe("B(4)", spec); !strings.Contains(out, "depth d(G) = 3") {
		t.Errorf("describe wrong: %s", out)
	}
	tree := MustTree(4)
	if out := RenderTree(tree); !strings.Contains(out, "counter 3") {
		t.Error("tree render missing counters")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	cfg := DefaultExperimentConfig()
	cfg.Widths = []int{4, 8}
	cfg.Schedules = 5
	exps, err := RunAllExperiments(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exps {
		if !e.Pass() {
			t.Errorf("experiment %s failed:\n%s", e.ID, e.Format())
		}
	}
	if rep := FormatReport(exps); !strings.Contains(rep, "experiments pass") {
		t.Error("report footer missing")
	}
}
