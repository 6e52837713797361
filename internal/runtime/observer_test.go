package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/construct"
)

// countingObserver tallies events; safe for concurrent use.
type countingObserver struct {
	enters, visits, retries, exits atomic.Int64
	lastElapsed                    atomic.Int64
}

func (o *countingObserver) TokenEnter(wire int)       { o.enters.Add(1) }
func (o *countingObserver) BalancerVisit(wire, b int) { o.visits.Add(1) }
func (o *countingObserver) CASRetry(wire, b int)      { o.retries.Add(1) }
func (o *countingObserver) TokenExit(wire, sink int, v int64, d time.Duration) {
	o.exits.Add(1)
	o.lastElapsed.Store(int64(d))
}

// TestObserverEventCounts: every token fires one enter, one exit, and one
// visit per layer of the uniform network, from Inc, IncCtx and IncCAS alike.
func TestObserverEventCounts(t *testing.T) {
	spec := construct.MustBitonic(4)
	n := MustCompile(spec)
	obs := &countingObserver{}
	n.SetObserver(obs)

	const workers, per = 4, 50
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				n.Inc(id)
			}
		}(id)
	}
	wg.Wait()
	total := int64(workers * per)
	if got := obs.enters.Load(); got != total {
		t.Errorf("enters = %d, want %d", got, total)
	}
	if got := obs.exits.Load(); got != total {
		t.Errorf("exits = %d, want %d", got, total)
	}
	if got := obs.visits.Load(); got != total*int64(spec.Depth()) {
		t.Errorf("visits = %d, want %d", got, total*int64(spec.Depth()))
	}
	if obs.lastElapsed.Load() <= 0 {
		t.Error("exit elapsed not positive")
	}

	// IncCAS fires the same events (plus retries under contention).
	before := obs.enters.Load()
	n.IncCAS(0)
	if obs.enters.Load() != before+1 {
		t.Error("IncCAS did not fire TokenEnter")
	}
}

// racingObserver advances the first balancer a token visits, between
// IncCAS's read of that toggle and its compare-and-swap, as a concurrent
// token would.
type racingObserver struct {
	countingObserver
	n     *Network
	raced int // the balancer raced, -1 until the first visit
}

func (o *racingObserver) BalancerVisit(wire, b int) {
	o.countingObserver.BalancerVisit(wire, b)
	if o.raced < 0 {
		o.raced = b
		o.n.toggles[b].v.Add(1)
	}
}

// TestIncCASRetry: a toggle that moves between IncCAS's read and its
// compare-and-swap fails that swap exactly once, and the retry toggles
// from the moved value.
func TestIncCASRetry(t *testing.T) {
	n := MustCompile(construct.MustBitonic(4))
	obs := &racingObserver{n: n, raced: -1}
	n.SetObserver(obs)
	n.IncCAS(0)
	if got := obs.retries.Load(); got != 1 {
		t.Errorf("CASRetry fired %d times, want 1", got)
	}
	if got := n.toggles[obs.raced].v.Load(); got != 2 {
		t.Errorf("raced toggle = %d, want 2 (the racer's step and the retried one)", got)
	}
}

// TestObserverWithFaultHook: observer and fault hook compose on the same
// instrumented traversal, and the values stay a correct count.
func TestObserverWithFaultHook(t *testing.T) {
	spec := construct.MustBitonic(4)
	n := MustCompile(spec)
	obs := &countingObserver{}
	var hooks atomic.Int64
	n.SetObserver(obs)
	n.SetFaultHook(func(ctx context.Context, bal int) { hooks.Add(1) })

	const total = 40
	vals := make([]int64, total)
	for i := range vals {
		vals[i] = n.Inc(i)
	}
	if err := Verify(vals); err != nil {
		t.Fatal(err)
	}
	if obs.exits.Load() != total {
		t.Errorf("exits = %d, want %d", obs.exits.Load(), total)
	}
	if hooks.Load() != obs.visits.Load() {
		t.Errorf("hook calls %d != observer visits %d", hooks.Load(), obs.visits.Load())
	}
}

// TestIncFastPathNoAllocs pins the overhead budget of the cache-conscious
// layout: with no hook and no observer attached, Inc must not allocate,
// and IncBatch must allocate O(width) — its allocation count cannot grow
// with k.
func TestIncFastPathNoAllocs(t *testing.T) {
	n := MustCompile(construct.MustBitonic(8))
	if allocs := testing.AllocsPerRun(1000, func() { n.Inc(3) }); allocs != 0 {
		t.Fatalf("uninstrumented Inc allocates %.1f objects per op, want 0", allocs)
	}
	small := testing.AllocsPerRun(500, func() { n.IncBatch(3, 8) })
	large := testing.AllocsPerRun(500, func() { n.IncBatch(3, 8192) })
	if large > small {
		t.Fatalf("IncBatch allocations grow with k: %.1f at k=8 vs %.1f at k=8192", small, large)
	}
	// One result slice (plus at most pool-warmup noise); anything more
	// means per-token or per-balancer garbage crept into the batch path.
	if large > 2 {
		t.Fatalf("IncBatch allocates %.1f objects per call, want ≤ 2 (O(width) scratch is pooled)", large)
	}
}

// TestIncFastPathBudget is the ns/op guard for the layout: uninstrumented
// Inc on B(8) runs in well under a microsecond on any healthy machine
// (~86ns measured on the CI-class box this was tuned on; the seed layout
// was ~108ns). The bound is deliberately loose — it catches accidental
// divisions, pointer chasing or allocation creeping back into the hot
// loop, not scheduler noise.
func TestIncFastPathBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under the race detector")
	}
	n := MustCompile(construct.MustBitonic(8))
	const ops = 200_000
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 3; attempt++ {
		start := time.Now()
		for i := 0; i < ops; i++ {
			n.Inc(i)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	perOp := best / ops
	t.Logf("uninstrumented Inc: %v/op", perOp)
	if perOp > 2*time.Microsecond {
		t.Fatalf("uninstrumented Inc took %v/op, budget is 2µs/op", perOp)
	}
}

// TestObserverBatchParity: the instrumented batch path reports through the
// same Observer/FaultHook hooks as Inc — one TokenEnter per batch, one
// BalancerVisit and one hook call per atomic toggle op, one TokenExit per
// contributing sink — and instrumentation must not change the values the
// batch hands out.
func TestObserverBatchParity(t *testing.T) {
	spec := construct.MustBitonic(8)
	plain := MustCompile(spec)
	inst := MustCompile(spec)
	obs := &countingObserver{}
	var hooks atomic.Int64
	inst.SetObserver(obs)
	inst.SetFaultHook(func(ctx context.Context, bal int) { hooks.Add(1) })

	const k = 100
	pr := plain.IncBatch(2, k)
	ir := inst.IncBatch(2, k)
	if len(pr) != len(ir) {
		t.Fatalf("instrumentation changed the ranges: %d vs %d", len(pr), len(ir))
	}
	for i := range pr {
		if pr[i] != ir[i] {
			t.Fatalf("range %d: plain %+v, instrumented %+v", i, pr[i], ir[i])
		}
	}
	if got := obs.enters.Load(); got != 1 {
		t.Errorf("enters = %d, want 1 per batch", got)
	}
	if got := obs.exits.Load(); got != int64(len(ir)) {
		t.Errorf("exits = %d, want one per contributing sink (%d)", got, len(ir))
	}
	if obs.visits.Load() != hooks.Load() {
		t.Errorf("hook calls %d != observer visits %d", hooks.Load(), obs.visits.Load())
	}
	// Each visit is one atomic toggle op; a batch touches each balancer at
	// most once, and k ≥ width tokens reach all of them.
	if v := obs.visits.Load(); v <= 0 || v > int64(inst.Size()) {
		t.Errorf("batch visits = %d, want 1..%d (once per touched balancer)", v, inst.Size())
	}
	if obs.lastElapsed.Load() <= 0 {
		t.Error("exit elapsed not positive")
	}
}
