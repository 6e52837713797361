package runtime

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/construct"
)

// hammer runs workers × ops concurrent increments and checks the counting
// property (values are exactly 0..N-1).
func hammer(t *testing.T, c Counter, workers, ops int) []Op {
	t.Helper()
	w := Workload{Workers: workers, OpsPerWorker: ops}
	recorded := w.Run(c)
	if err := Verify(Values(recorded)); err != nil {
		t.Fatalf("counting property: %v", err)
	}
	return recorded
}

func TestNetworkSequential(t *testing.T) {
	n := MustCompile(construct.MustBitonic(8))
	for k := int64(0); k < 50; k++ {
		if v := n.Inc(int(k) % 8); v != k {
			t.Fatalf("token %d got %d", k, v)
		}
	}
}

func TestNetworkConcurrentCounts(t *testing.T) {
	for _, w := range []int{2, 4, 8, 16} {
		for _, builder := range []struct {
			name string
			c    Counter
		}{
			{fmt.Sprintf("bitonic-%d", w), MustCompile(construct.MustBitonic(w))},
			{fmt.Sprintf("periodic-%d", w), MustCompile(construct.MustPeriodic(w))},
		} {
			t.Run(builder.name, func(t *testing.T) {
				hammer(t, builder.c, 2*w, 200)
			})
		}
	}
}

func TestTreeConcurrentCounts(t *testing.T) {
	n := MustCompile(construct.MustTree(8))
	w := Workload{Workers: 8, OpsPerWorker: 200, WireFor: func(int) int { return 0 }}
	ops := w.Run(n)
	if err := Verify(Values(ops)); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkCASVariant(t *testing.T) {
	spec := construct.MustBitonic(8)
	n := MustCompile(spec)
	var wg sync.WaitGroup
	values := make([][]int64, 8)
	for id := 0; id < 8; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				values[id] = append(values[id], n.IncCAS(id))
			}
		}(id)
	}
	wg.Wait()
	var all []int64
	for _, vs := range values {
		all = append(all, vs...)
	}
	if err := Verify(all); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesCount(t *testing.T) {
	builders := map[string]func() Counter{
		"atomic":    func() Counter { return new(AtomicCounter) },
		"mutex":     func() Counter { return new(MutexCounter) },
		"queuelock": func() Counter { return new(QueueLockCounter) },
		"combining": func() Counter { return NewCombiningTree(4) },
	}
	for name, mk := range builders {
		t.Run(name, func(t *testing.T) {
			hammer(t, mk(), 8, 300)
		})
	}
}

// TestBaselinesLinearizable: the centralized baselines are linearizable
// objects, so a wall-clock audit must never find a violation.
func TestBaselinesLinearizable(t *testing.T) {
	builders := map[string]func() Counter{
		"atomic":    func() Counter { return new(AtomicCounter) },
		"mutex":     func() Counter { return new(MutexCounter) },
		"queuelock": func() Counter { return new(QueueLockCounter) },
	}
	for name, mk := range builders {
		t.Run(name, func(t *testing.T) {
			ops := hammer(t, mk(), 6, 300)
			audit := Audit(ops)
			if !consistency.Linearizable(audit) {
				t.Error("baseline audit found a linearizability violation")
			}
			if !consistency.SequentiallyConsistent(audit) {
				t.Error("baseline audit found an SC violation")
			}
		})
	}
}

// TestCombiningTreeLinearizable: combining preserves linearizability of
// the underlying counter.
func TestCombiningTreeLinearizable(t *testing.T) {
	ops := hammer(t, NewCombiningTree(4), 8, 200)
	if !consistency.Linearizable(Audit(ops)) {
		t.Error("combining tree audit found a violation")
	}
}

// TestCombiningTreeHeavyContention drives many more threads than leaves so
// every increment combines, exercising the FIRST/SECOND/RESULT hand-off
// (including the re-lock released after distribution) thousands of times.
func TestCombiningTreeHeavyContention(t *testing.T) {
	for _, leaves := range []int{1, 2, 8} {
		tree := NewCombiningTree(leaves)
		w := Workload{
			Workers:      4 * leaves,
			OpsPerWorker: 500,
			WireFor:      func(id int) int { return id / 2 }, // two workers per leaf slot
		}
		ops := w.Run(tree)
		if err := Verify(Values(ops)); err != nil {
			t.Fatalf("leaves=%d: %v", leaves, err)
		}
	}
}

// TestPacedWorkloadSC: with a large local pace relative to traversal
// times, the counting network behaves sequentially consistently in
// practice — the Theorem 4.1 timer at work. The pace used here dwarfs any
// plausible traversal-time spread on a healthy machine; the test asserts
// the audit AND reports rather than guessing at scheduler noise, skipping
// if the box is too loaded to make timing meaningful.
func TestPacedWorkloadSC(t *testing.T) {
	n := MustCompile(construct.MustBitonic(8))
	w := Workload{Workers: 8, OpsPerWorker: 40, Pace: 2 * time.Millisecond}
	ops := w.Run(n)
	if err := Verify(Values(ops)); err != nil {
		t.Fatal(err)
	}
	audit := Audit(ops)
	if !consistency.SequentiallyConsistent(audit) {
		// A paced run can only violate SC if one traversal outlived the
		// 2ms pace — possible on a pathologically loaded machine.
		maxDur := int64(0)
		for _, op := range ops {
			if d := op.End - op.Start; d > maxDur {
				maxDur = d
			}
		}
		if maxDur > int64(time.Millisecond) {
			t.Skipf("machine too loaded for timing test: max traversal %dns", maxDur)
		}
		t.Error("paced workload violated sequential consistency")
	}
}

func TestWorkloadWireFor(t *testing.T) {
	n := MustCompile(construct.MustBitonic(4))
	w := Workload{Workers: 9, OpsPerWorker: 10, WireFor: func(id int) int { return id % 4 }}
	ops := w.Run(n)
	if len(ops) != 90 {
		t.Fatalf("ops = %d, want 90", len(ops))
	}
	if err := Verify(Values(ops)); err != nil {
		t.Fatal(err)
	}
}

func TestCompileShapes(t *testing.T) {
	nets := []struct {
		name string
		c    *Network
	}{
		{"bitonic", MustCompile(construct.MustBitonic(4))},
		{"tree", MustCompile(construct.MustTree(4))},
	}
	for _, n := range nets {
		if n.c.FanOut() != 4 {
			t.Errorf("%s fan-out = %d", n.name, n.c.FanOut())
		}
	}
	if nets[0].c.FanIn() != 4 || nets[1].c.FanIn() != 1 {
		t.Error("fan-in wrong")
	}
	if nets[0].c.Depth() != 3 {
		t.Errorf("depth = %d, want 3", nets[0].c.Depth())
	}
}

func TestVerify(t *testing.T) {
	if err := Verify([]int64{2, 0, 1}); err != nil {
		t.Errorf("permutation should verify: %v", err)
	}
	if err := Verify([]int64{0, 0, 1}); err == nil {
		t.Error("duplicate should fail")
	}
	if err := Verify([]int64{0, 3}); err == nil {
		t.Error("gap should fail")
	}
	if err := Verify(nil); err != nil {
		t.Errorf("empty should verify: %v", err)
	}
}

// TestVerifyEdgeCases pins the boundary behaviour: empty inputs verify,
// a single value must be exactly 0, and duplicates/overflows right at the
// len-1 boundary are caught.
func TestVerifyEdgeCases(t *testing.T) {
	if err := Verify([]int64{}); err != nil {
		t.Errorf("empty non-nil slice should verify: %v", err)
	}
	if err := Verify([]int64{0}); err != nil {
		t.Errorf("single value 0 should verify: %v", err)
	}
	if err := Verify([]int64{1}); err == nil {
		t.Error("single value 1 is a gap (range is 0..0) and should fail")
	}
	if err := Verify([]int64{-1}); err == nil {
		t.Error("negative value should fail")
	}
	if err := Verify([]int64{0, 1, 2, 2}); err == nil {
		t.Error("duplicate at the len-1 boundary should fail")
	}
	if err := Verify([]int64{0, 1, 2, 4}); err == nil {
		t.Error("value == len(values) should fail the range check")
	}
	if err := Verify([]int64{3, 2, 1, 0}); err != nil {
		t.Errorf("reversed permutation should verify: %v", err)
	}
}

func BenchmarkIncUncontended(b *testing.B) {
	n := MustCompile(construct.MustBitonic(8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Inc(i % 8)
	}
}

// TestLinearizableWrapper: the waiting wrapper makes any quiescently
// consistent counter linearizable — the wall-clock audit must be clean no
// matter how the scheduler interleaves traversals.
func TestLinearizableWrapper(t *testing.T) {
	base := MustCompile(construct.MustBitonic(8))
	lin := NewLinearizableCounter(base)
	ops := hammer(t, lin, 8, 200)
	audit := Audit(ops)
	if !consistency.Linearizable(audit) {
		t.Error("wrapped counter audit found a linearizability violation")
	}
}

// TestMonitoredWorkload: the streaming monitor sees every operation and,
// for a linearizable counter, never raises a violation.
func TestMonitoredWorkload(t *testing.T) {
	mon := consistency.NewOnline()
	w := Workload{Workers: 6, OpsPerWorker: 200, Monitor: mon}
	ops := w.Run(new(AtomicCounter))
	if err := Verify(Values(ops)); err != nil {
		t.Fatal(err)
	}
	f := mon.Fractions()
	if f.Total != len(ops) {
		t.Errorf("monitor saw %d ops, want %d", f.Total, len(ops))
	}
	if f.NonLin != 0 || f.NonSC != 0 {
		t.Errorf("atomic counter flagged by monitor: %v", f)
	}
}
