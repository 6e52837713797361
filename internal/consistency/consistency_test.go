package consistency

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// seqOps builds an execution with the given (process, value) pairs in
// order, each operation completely preceding the next.
func seqOps(pairs ...[2]int64) []Op {
	ops := make([]Op, len(pairs))
	idx := make(map[int]int)
	for i, pr := range pairs {
		proc := int(pr[0])
		ops[i] = Op{
			Process:  proc,
			Index:    idx[proc],
			Value:    pr[1],
			EnterSeq: int64(2 * i),
			ExitSeq:  int64(2*i + 1),
		}
		idx[proc]++
	}
	return ops
}

func TestSequentialExecutionConsistent(t *testing.T) {
	ops := seqOps([2]int64{0, 0}, [2]int64{1, 1}, [2]int64{0, 2}, [2]int64{2, 3})
	if !Linearizable(ops) {
		t.Error("increasing sequential execution must be linearizable")
	}
	if !SequentiallyConsistent(ops) {
		t.Error("increasing sequential execution must be SC")
	}
	f := Measure(ops)
	if f.NonLin != 0 || f.NonSC != 0 || f.AbsNonSC != 0 {
		t.Errorf("fractions = %+v, want zeros", f)
	}
}

func TestInvertedSequentialExecution(t *testing.T) {
	// Two sequential operations by different processes with inverted
	// values: non-linearizable but sequentially consistent.
	ops := seqOps([2]int64{0, 5}, [2]int64{1, 3})
	if Linearizable(ops) {
		t.Error("inverted values across precedence must not be linearizable")
	}
	if !SequentiallyConsistent(ops) {
		t.Error("different processes: still SC")
	}
	marks := NonLinearizable(ops)
	if marks[0] || !marks[1] {
		t.Errorf("marks = %v, want second only", marks)
	}
}

func TestSameProcessInversion(t *testing.T) {
	ops := seqOps([2]int64{0, 5}, [2]int64{0, 3})
	if SequentiallyConsistent(ops) {
		t.Error("same-process inversion must violate SC")
	}
	if Linearizable(ops) {
		t.Error("and also linearizability")
	}
	f := Measure(ops)
	if f.NonSC != 1 || f.NonLin != 1 || f.AbsNonSC != 1 {
		t.Errorf("fractions = %+v", f)
	}
	if f.NonSCFraction() != 0.5 {
		t.Errorf("F_nsc = %v, want 0.5", f.NonSCFraction())
	}
}

func TestOverlappingOpsAnyOrder(t *testing.T) {
	// Two overlapping operations (neither completely precedes the other)
	// may return values in either order.
	ops := []Op{
		{Process: 0, Index: 0, Value: 1, EnterSeq: 0, ExitSeq: 3},
		{Process: 1, Index: 0, Value: 0, EnterSeq: 1, ExitSeq: 2},
	}
	if !Linearizable(ops) {
		t.Error("overlapping inverted values are linearizable")
	}
	if !BruteLinearizable(ops) {
		t.Error("brute force disagrees")
	}
}

func TestNonLinearizableDefinition(t *testing.T) {
	// LSST99's example shape: T1 completes with a large value before T2
	// starts; T2 gets a smaller value; T2 (the later token) is the
	// non-linearizable one.
	ops := []Op{
		{Process: 0, Index: 0, Value: 9, EnterSeq: 0, ExitSeq: 1},
		{Process: 1, Index: 0, Value: 2, EnterSeq: 5, ExitSeq: 6},
		{Process: 2, Index: 0, Value: 3, EnterSeq: 7, ExitSeq: 8},
	}
	marks := NonLinearizable(ops)
	want := []bool{false, true, true}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("marks[%d] = %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if !Linearizable(nil) || !SequentiallyConsistent(nil) {
		t.Error("empty execution is consistent")
	}
	f := Measure(nil)
	if f.NonLinFraction() != 0 || f.NonSCFraction() != 0 || f.AbsNonLinFraction() != 0 || f.AbsNonSCFraction() != 0 {
		t.Error("empty fractions should be zero")
	}
	one := seqOps([2]int64{0, 0})
	if !Linearizable(one) || !SequentiallyConsistent(one) {
		t.Error("singleton execution is consistent")
	}
}

func TestMinRemovalsSC(t *testing.T) {
	tests := []struct {
		name string
		ops  []Op
		want int
	}{
		{"increasing", seqOps([2]int64{0, 1}, [2]int64{0, 2}, [2]int64{0, 3}), 0},
		{"one dip", seqOps([2]int64{0, 5}, [2]int64{0, 1}, [2]int64{0, 6}), 1},
		{"decreasing", seqOps([2]int64{0, 3}, [2]int64{0, 2}, [2]int64{0, 1}), 2},
		{"two processes", seqOps([2]int64{0, 5}, [2]int64{1, 9}, [2]int64{0, 1}, [2]int64{1, 2}), 2},
		{"zigzag", seqOps([2]int64{0, 2}, [2]int64{0, 8}, [2]int64{0, 4}, [2]int64{0, 6}), 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := MinRemovalsSC(tt.ops); got != tt.want {
				t.Errorf("MinRemovalsSC = %d, want %d", got, tt.want)
			}
		})
	}
}

// randomOps draws a small random execution: random interval endpoints and
// distinct values.
func randomOps(rng *rand.Rand, n, procs int) []Op {
	ops := make([]Op, n)
	vals := rng.Perm(n)
	idx := make(map[int]int)
	// Random intervals over a small step domain; per-process intervals
	// must be disjoint and ordered, so assign per-process sequential slots
	// with random global offsets.
	type slot struct{ enter, exit int64 }
	nextFree := make(map[int]int64)
	for i := 0; i < n; i++ {
		p := rng.Intn(procs)
		start := nextFree[p] + int64(rng.Intn(5))
		length := int64(rng.Intn(6) + 1)
		ops[i] = Op{
			Process:  p,
			Index:    idx[p],
			Value:    int64(vals[i]),
			EnterSeq: start,
			ExitSeq:  start + length,
		}
		idx[p]++
		nextFree[p] = start + length + 1
	}
	return ops
}

// TestQuickLinearizableAgainstBrute: the value-order argument matches the
// literal enumerate-serializations definition.
func TestQuickLinearizableAgainstBrute(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 2+rng.Intn(5), 1+rng.Intn(3))
		return Linearizable(ops) == BruteLinearizable(ops)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickLemma51: the non-linearizability fraction equals the absolute
// (minimal-removal) non-linearizability fraction — the paper's Lemma 5.1 —
// on random small executions.
func TestQuickLemma51(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 2+rng.Intn(5), 1+rng.Intn(3))
		nonLin := 0
		for _, bad := range NonLinearizable(ops) {
			if bad {
				nonLin++
			}
		}
		return BruteMinRemovalsLinearizable(ops) == nonLin
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickMinRemovalsSCAgainstBrute: the per-process LIS computation
// matches exhaustive subset search.
func TestQuickMinRemovalsSCAgainstBrute(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 2+rng.Intn(5), 1+rng.Intn(3))
		return MinRemovalsSC(ops) == BruteMinRemovalsSC(ops)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSCImpliedByLin: linearizable executions are sequentially
// consistent (linearizability is the stronger condition).
func TestQuickSCImpliedByLin(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 2+rng.Intn(6), 1+rng.Intn(3))
		if Linearizable(ops) && !SequentiallyConsistent(ops) {
			return false
		}
		// And the counts obey F_nl ≥ F_nsc... not pointwise by token, but
		// as counts: every non-SC token is non-linearizable, because a
		// same-process predecessor completely precedes it.
		nl := NonLinearizable(ops)
		for i, bad := range NonSequentiallyConsistent(ops) {
			if bad && !nl[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestFractionsString(t *testing.T) {
	f := Measure(seqOps([2]int64{0, 5}, [2]int64{0, 3}))
	if got := f.String(); got == "" {
		t.Error("String should not be empty")
	}
}

func TestCompletelyPrecedes(t *testing.T) {
	a := Op{EnterSeq: 0, ExitSeq: 5}
	b := Op{EnterSeq: 6, ExitSeq: 9}
	c := Op{EnterSeq: 5, ExitSeq: 9}
	if !a.CompletelyPrecedes(b) {
		t.Error("disjoint ordered ops should precede")
	}
	if a.CompletelyPrecedes(c) {
		t.Error("ops sharing a step boundary do not completely precede")
	}
	if b.CompletelyPrecedes(a) {
		t.Error("precedence is not symmetric")
	}
}

func TestWitnessExtraction(t *testing.T) {
	ops := seqOps([2]int64{0, 5}, [2]int64{1, 7}, [2]int64{0, 3})
	e, l, ok := WitnessNonLinearizable(ops)
	if !ok {
		t.Fatal("execution has an inversion")
	}
	if !(ops[e].Value > ops[l].Value && ops[e].CompletelyPrecedes(ops[l])) {
		t.Errorf("bad witness: %+v then %+v", ops[e], ops[l])
	}
	e2, l2, ok := WitnessNonSequentiallyConsistent(ops)
	if !ok {
		t.Fatal("execution has a same-process inversion")
	}
	if ops[e2].Process != ops[l2].Process || ops[e2].Value <= ops[l2].Value {
		t.Errorf("bad SC witness: %+v then %+v", ops[e2], ops[l2])
	}
	clean := seqOps([2]int64{0, 1}, [2]int64{0, 2})
	if _, _, ok := WitnessNonLinearizable(clean); ok {
		t.Error("clean execution should have no witness")
	}
	if _, _, ok := WitnessNonSequentiallyConsistent(clean); ok {
		t.Error("clean execution should have no SC witness")
	}
}

func TestDuplicate(t *testing.T) {
	tests := []struct {
		name          string
		ops           []Op
		first, second int
		dup           bool
	}{
		{name: "empty"},
		{name: "distinct", ops: seqOps([2]int64{0, 5}, [2]int64{1, 0}, [2]int64{0, 9})},
		{name: "pair", ops: seqOps([2]int64{0, 5}, [2]int64{1, 0}, [2]int64{2, 5}), first: 0, second: 2, dup: true},
		{
			// Two duplicated values: the pair whose second occurrence
			// comes first in input order wins.
			name:  "earliest repeat wins",
			ops:   seqOps([2]int64{0, 7}, [2]int64{1, 3}, [2]int64{2, 3}, [2]int64{3, 7}),
			first: 1, second: 2, dup: true,
		},
		{name: "triple reports first two", ops: seqOps([2]int64{0, 1}, [2]int64{1, 1}, [2]int64{2, 1}), first: 0, second: 1, dup: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			first, second, dup := Duplicate(tt.ops)
			if dup != tt.dup || first != tt.first || second != tt.second {
				t.Errorf("Duplicate = (%d, %d, %v), want (%d, %d, %v)", first, second, dup, tt.first, tt.second, tt.dup)
			}
		})
	}
}
