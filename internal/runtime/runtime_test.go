package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/construct"
)

// hammer runs workers × ops concurrent increments and audits them.
func hammer(t *testing.T, c Counter, workers, ops int) consistency.Report {
	t.Helper()
	return audit(t, Workload{Workers: workers, OpsPerWorker: ops}.Run(c))
}

// audit checks the counting property (the values are exactly 0..N-1) and
// returns the rest of consistency.Audit's report.
func audit(t *testing.T, recs []consistency.Record) consistency.Report {
	t.Helper()
	r := consistency.Audit(recs, int64(len(recs)))
	if r.Duplicates != 0 || r.OutOfRange != 0 {
		t.Fatalf("counting property: %+v", r)
	}
	return r
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
	audit(t, w.Run(n))
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
			r := hammer(t, mk(), 6, 300)
			if r.SC.NonLin != 0 {
				t.Errorf("baseline audit found a linearizability violation: %+v", r)
			}
			if r.SessionBreaks() != 0 {
				t.Errorf("baseline audit found an SC violation: %+v", r)
			}
		})
	}
}

// TestQueueLockWaitsForPredecessor: a CLH waiter spins on its
// predecessor's node, then parks, and enters only once that predecessor
// releases.
func TestQueueLockWaitsForPredecessor(t *testing.T) {
	var c QueueLockCounter
	c.init()
	holder := new(clhNode) // a nil state: its owner holds the lock
	c.tail.Store(holder)
	done := make(chan int64, 1)
	go func() { done <- c.Inc(0) }()
	time.Sleep(time.Millisecond)
	select {
	case v := <-done:
		t.Fatalf("Inc returned %d while its predecessor held the lock", v)
	default:
	}
	holder.release()
	if v := <-done; v != 0 {
		t.Errorf("Inc = %d, want 0", v)
	}
}

// TestQueueLockIncAllocatesNothing: an uncontended Inc reuses the node
// its predecessor released instead of allocating one.
func TestQueueLockIncAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop nodes at random")
	}
	var c QueueLockCounter
	c.Inc(0)
	if n := testing.AllocsPerRun(1000, func() { c.Inc(0) }); n != 0 {
		t.Errorf("Inc allocates %v times, want 0", n)
	}
}

// TestCombineWaitsForLockedNode: combine blocks while a node is locked
// for an earlier round, then re-locks it and deposits its bundle.
func TestCombineWaitsForLockedNode(t *testing.T) {
	n := newCombNode(nil, combFirst)
	n.locked = true
	done := make(chan int64, 1)
	go func() { done <- n.combine(5) }()
	time.Sleep(time.Millisecond)
	select {
	case v := <-done:
		t.Fatalf("combine returned %d through a locked node", v)
	default:
	}
	n.mu.Lock()
	n.locked = false
	n.cond.Broadcast()
	n.mu.Unlock()
	if v := <-done; v != 5 {
		t.Errorf("combine = %d, want the deposited 5", v)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.locked {
		t.Error("combine should leave the node locked for distribution")
	}
}

// TestCombiningTreeLinearizable: combining preserves linearizability of
// the underlying counter.
func TestCombiningTreeLinearizable(t *testing.T) {
	if r := hammer(t, NewCombiningTree(4), 8, 200); r.SC.NonLin != 0 {
		t.Errorf("combining tree audit found a violation: %+v", r)
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
		if r := consistency.Audit(w.Run(tree), int64(w.Workers*w.OpsPerWorker)); r.Duplicates != 0 || r.OutOfRange != 0 {
			t.Fatalf("leaves=%d: %+v", leaves, r)
		}
	}
}

// ctxInc drives a LinearizableCounter through IncCtx, the path whose wait
// also polls its context.
type ctxInc struct{ l *LinearizableCounter }

func (c ctxInc) Inc(wire int) int64 {
	v, err := c.l.IncCtx(context.Background(), wire)
	if err != nil {
		panic(err)
	}
	return v
}

// TestWaitersYield drives 4·GOMAXPROCS goroutines through 1e6 increments
// of every counter whose Inc waits on another goroutine, under a deadline.
// A wait that spins without yielding turns one preempted lock holder (or
// ticket) into a convoy: every waiter queued behind it spins out a whole
// time slice, and at GOMAXPROCS 2 the run takes minutes instead of about a
// second. Run it at -cpu 1,2, and with more Ps than cores
// (GOMAXPROCS=8 on a smaller box): the operating system then deschedules
// the threads of queued waiters, and a first-in-first-out hand-off waits
// out their time slices unless the waiters park.
func TestWaitersYield(t *testing.T) {
	ops := 1_000_000
	if raceEnabled {
		// The race detector slows every atomic about tenfold; the convoy
		// shows at this count too, and the race build checks data races.
		ops = 100_000
	}
	const deadline = 60 * time.Second
	counters := []struct {
		name string
		mk   func() Counter
	}{
		{"queuelock", func() Counter { return new(QueueLockCounter) }},
		{"linearizable", func() Counter { return NewLinearizableCounter(MustCompile(construct.MustBitonic(8))) }},
		{"linearizable-ctx", func() Counter { return ctxInc{NewLinearizableCounter(MustCompile(construct.MustBitonic(8)))} }},
		{"combining-8", func() Counter { return NewCombiningTree(8) }},
	}
	g := 4 * goruntime.GOMAXPROCS(0)
	for _, tc := range counters {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.mk()
			vals := make([]int64, ops)
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < ops && !stop.Load(); i += g {
						vals[i] = c.Inc(w)
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			start := time.Now()
			select {
			case <-done:
			case <-time.After(deadline):
				stop.Store(true)
				t.Fatalf("%d increments by %d goroutines did not finish in %v: a waiter spins without yielding", ops, g, deadline)
			}
			t.Logf("%d increments by %d goroutines in %v", ops, g, time.Since(start).Round(time.Millisecond))
			if err := Verify(vals); err != nil {
				t.Fatal(err)
			}
		})
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
	if r := audit(t, ops); r.SessionBreaks() != 0 {
		// A paced run can only violate SC if one traversal outlived the
		// 2ms pace — possible on a pathologically loaded machine.
		maxDur := int64(0)
		for _, op := range ops {
			if d := op.Respond - op.Invoke; d > maxDur {
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
	audit(t, ops)
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
	if r := hammer(t, lin, 8, 200); r.SC.NonLin != 0 {
		t.Errorf("wrapped counter audit found a linearizability violation: %+v", r)
	}
}

// TestMonitoredWorkload: the streaming monitor sees every operation and,
// for a linearizable counter, never raises a violation.
func TestMonitoredWorkload(t *testing.T) {
	mon := consistency.NewOnline()
	w := Workload{Workers: 6, OpsPerWorker: 200, Monitor: mon}
	ops := w.Run(new(AtomicCounter))
	audit(t, ops)
	f := mon.Fractions()
	if f.Total != len(ops) {
		t.Errorf("monitor saw %d ops, want %d", f.Total, len(ops))
	}
	if f.NonLin != 0 || f.NonSC != 0 {
		t.Errorf("atomic counter flagged by monitor: %v", f)
	}
}
