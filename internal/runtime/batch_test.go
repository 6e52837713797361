package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/construct"
	"repro/internal/network"
	"repro/internal/telemetry"
)

// batchSpec is one wiring shape the batch tests sweep. counting marks the
// specs that are counting networks: Figure 2 is only a balancing network,
// so batch/serial equivalence holds on it but gap-freedom need not.
type batchSpec struct {
	spec     *network.Network
	counting bool
}

// batchSpecs covers power-of-two fan-outs (bitmask port selection), the
// mixed-fan-out Figure 2 network and a (3,3)-balancer (both exercising
// the multiply-high general case), and the single-input tree.
func batchSpecs(t testing.TB) map[string]batchSpec {
	t.Helper()
	fig2, _, err := construct.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	tri, _, err := construct.SingleBalancer(3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]batchSpec{
		"bitonic-8":  {construct.MustBitonic(8), true},
		"periodic-8": {construct.MustPeriodic(8), true},
		"tree-8":     {construct.MustTree(8), true},
		"figure2":    {fig2, false},
		"balancer-3": {tri, true},
	}
}

// toggleStates reads every balancer's toggle — the complete mutable state
// of a quiesced network apart from the sink counters.
func (n *Network) toggleStates() []int64 {
	out := make([]int64, len(n.toggles))
	for i := range n.toggles {
		out[i] = n.toggles[i].v.Load()
	}
	return out
}

func counterStates(n *Network) []int64 {
	out := make([]int64, len(n.counters))
	for i := range n.counters {
		out[i] = n.counters[i].v.Load()
	}
	return out
}

// TestIncBatchEqualsSerial: on a fresh network, IncBatch(wire, k) must
// leave exactly the state k serial Inc(wire) calls leave — same toggles,
// same counters — and hand out exactly the values 0..k-1.
func TestIncBatchEqualsSerial(t *testing.T) {
	for name, bs := range batchSpecs(t) {
		spec := bs.spec
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{1, 2, 3, 7, 64, 1000} {
				batch, serial := MustCompile(spec), MustCompile(spec)
				rs := batch.IncBatch(0, k)
				if got := RangeTotal(rs); got != int64(k) {
					t.Fatalf("k=%d: batch carries %d values", k, got)
				}
				vals := ExpandRanges(nil, rs)
				serialVals := make([]int64, k)
				for i := range serialVals {
					serialVals[i] = serial.Inc(0)
				}
				sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
				sort.Slice(serialVals, func(a, b int) bool { return serialVals[a] < serialVals[b] })
				for i := range vals {
					if vals[i] != serialVals[i] {
						t.Fatalf("k=%d: value %d: batch %d, serial %d", k, i, vals[i], serialVals[i])
					}
				}
				if bs.counting {
					if err := Verify(vals); err != nil {
						t.Fatalf("k=%d: batch values: %v", k, err)
					}
				}
				bt, st := batch.toggleStates(), serial.toggleStates()
				for b := range bt {
					if bt[b] != st[b] {
						t.Fatalf("k=%d: toggle %d diverged: batch %d, serial %d", k, b, bt[b], st[b])
					}
				}
				bc, sc := counterStates(batch), counterStates(serial)
				for j := range bc {
					if bc[j] != sc[j] {
						t.Fatalf("k=%d: counter %d diverged: batch %d, serial %d", k, j, bc[j], sc[j])
					}
				}
			}
		})
	}
}

// TestIncBatchSplitProperty is the property test: a random program of
// batches (random wires and sizes, including size 1) on one network must
// reproduce, state-for-state and value-for-value, the same program run as
// serial traversals on a fresh network.
func TestIncBatchSplitProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, bs := range batchSpecs(t) {
		spec := bs.spec
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				batch, serial := MustCompile(spec), MustCompile(spec)
				var bVals, sVals []int64
				for step := 0; step < 12; step++ {
					wire := rng.Intn(2*spec.FanIn()) - spec.FanIn() // negative wires too
					k := 1 + rng.Intn(97)
					bVals = ExpandRanges(bVals, batch.IncBatch(wire, k))
					for i := 0; i < k; i++ {
						sVals = append(sVals, serial.Inc(wire))
					}
				}
				bt, st := batch.toggleStates(), serial.toggleStates()
				for b := range bt {
					if bt[b] != st[b] {
						t.Fatalf("trial %d: toggle %d diverged: batch %d, serial %d", trial, b, bt[b], st[b])
					}
				}
				sort.Slice(bVals, func(a, b int) bool { return bVals[a] < bVals[b] })
				sort.Slice(sVals, func(a, b int) bool { return sVals[a] < sVals[b] })
				if len(bVals) != len(sVals) {
					t.Fatalf("trial %d: %d batch values vs %d serial", trial, len(bVals), len(sVals))
				}
				for i := range bVals {
					if bVals[i] != sVals[i] {
						t.Fatalf("trial %d: value %d: batch %d, serial %d", trial, i, bVals[i], sVals[i])
					}
				}
				if bs.counting {
					if err := Verify(bVals); err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
				}
			}
		})
	}
}

// stepProperty checks the paper's step property over a quiesced run's
// values: sink j handed out c_j = |{v : v ≡ j mod w}| values, and the
// counts must be a step: c_0 ≥ c_1 ≥ ... ≥ c_{w-1} ≥ c_0 - 1.
func stepProperty(t *testing.T, vals []int64, w int) {
	t.Helper()
	counts := make([]int64, w)
	for _, v := range vals {
		counts[int(v%int64(w))]++
	}
	for j := 1; j < w; j++ {
		if counts[j] > counts[j-1] {
			t.Fatalf("step property violated: sink %d count %d > sink %d count %d",
				j, counts[j], j-1, counts[j-1])
		}
	}
	if w > 1 && counts[0]-counts[w-1] > 1 {
		t.Fatalf("step property violated: sink 0 count %d vs sink %d count %d",
			counts[0], w-1, counts[w-1])
	}
}

// TestIncBatchConcurrentMixed hammers one network with interleaved Inc and
// IncBatch from many goroutines (run under -race via make race): at
// quiescence the multiset of values must be gap-free and duplicate-free
// and the sink counts must satisfy the step property.
func TestIncBatchConcurrentMixed(t *testing.T) {
	for _, mk := range []struct {
		name string
		spec *network.Network
	}{
		{"bitonic-8", construct.MustBitonic(8)},
		{"periodic-4", construct.MustPeriodic(4)},
	} {
		t.Run(mk.name, func(t *testing.T) {
			n := MustCompile(mk.spec)
			const workers = 8
			const opsEach = 60
			results := make([][]int64, workers)
			var wg sync.WaitGroup
			for id := 0; id < workers; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(id)))
					var vals []int64
					for k := 0; k < opsEach; k++ {
						switch rng.Intn(3) {
						case 0:
							vals = append(vals, n.Inc(id))
						case 1:
							vals = ExpandRanges(vals, n.IncBatch(id, 1+rng.Intn(16)))
						default:
							vals = ExpandRanges(vals, n.IncBatch(-id, 1+rng.Intn(64)))
						}
					}
					results[id] = vals
				}(id)
			}
			wg.Wait()
			var all []int64
			for _, vs := range results {
				all = append(all, vs...)
			}
			if err := Verify(all); err != nil {
				t.Fatal(err)
			}
			stepProperty(t, all, n.FanOut())
		})
	}
}

// TestIncNegativeWire is the regression test for the negative-wire panic:
// Go's % keeps the dividend's sign, so inputs[wire%wIn] used to panic for
// negative worker ids. All four entry points must reduce wires to
// 0..wIn-1.
func TestIncNegativeWire(t *testing.T) {
	n := MustCompile(construct.MustBitonic(8))
	var vals []int64
	vals = append(vals, n.Inc(-1), n.Inc(-8), n.Inc(-17))
	vals = append(vals, n.IncCAS(-3))
	if v, err := n.IncCtx(context.Background(), -5); err != nil {
		t.Fatal(err)
	} else {
		vals = append(vals, v)
	}
	vals = ExpandRanges(vals, n.IncBatch(-7, 5))
	if err := Verify(vals); err != nil {
		t.Fatal(err)
	}
	// reduceWire pins the exact mapping: -1 mod 8 = 7, not -1.
	if got := reduceWire(-1, 8); got != 7 {
		t.Fatalf("reduceWire(-1, 8) = %d, want 7", got)
	}
	if got := reduceWire(-16, 8); got != 0 {
		t.Fatalf("reduceWire(-16, 8) = %d, want 0", got)
	}
}

// TestPortOfMatchesModulo sweeps the strength-reduced port selection and
// IncBatch's token split against the plain % and /, across every fan-out
// shape Compile can emit.
func TestPortOfMatchesModulo(t *testing.T) {
	for _, f := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 33, 255} {
		var b balancer
		b.setFanOut(f)
		states := []int64{0, 1, 2, int64(f) - 1, int64(f), int64(f) + 1,
			1<<31 - 1, 1 << 31, 1<<40 + 12345, 1<<62 - 1, 1<<62 + 7}
		for s := int64(0); s < 3*int64(f); s++ {
			states = append(states, s)
		}
		for _, s := range states {
			if got, want := portOf(s, &b), s%int64(f); got != want {
				t.Fatalf("portOf(%d, f=%d) = %d, want %d", s, f, got, want)
			}
			if q, r := split(s, &b); q != s/int64(f) || r != s%int64(f) {
				t.Fatalf("split(%d, f=%d) = %d, %d, want %d, %d", s, f, q, r, s/int64(f), s%int64(f))
			}
		}
	}
}

// TestIncBatchAtomicOpsBudget is the acceptance-criteria assertion: a
// 1024-token batch on B(16) must toggle at least 10× fewer atomic
// operations than 1024 serial Inc calls, measured by the telemetry
// collector's toggle counts (one BalancerVisit per atomic toggle op on
// both paths).
func TestIncBatchAtomicOpsBudget(t *testing.T) {
	spec := construct.MustBitonic(16)
	const k = 1024

	serial := MustCompile(spec)
	serialCol := telemetry.NewCollectorFor(spec)
	serial.SetObserver(serialCol)
	for i := 0; i < k; i++ {
		serial.Inc(i)
	}
	serialToggles := serialCol.Snapshot().TotalToggles()

	batch := MustCompile(spec)
	batchCol := telemetry.NewCollectorFor(spec)
	batch.SetObserver(batchCol)
	rs := batch.IncBatch(0, k)
	if got := RangeTotal(rs); got != k {
		t.Fatalf("batch carries %d values, want %d", got, k)
	}
	batchToggles := batchCol.Snapshot().TotalToggles()

	if batchToggles == 0 || serialToggles < 10*batchToggles {
		t.Fatalf("batch used %d atomic toggle ops vs %d serial: want ≥ 10× fewer",
			batchToggles, serialToggles)
	}
	t.Logf("atomic toggle ops for %d tokens: serial=%d batch=%d (%.0f× fewer)",
		k, serialToggles, batchToggles, float64(serialToggles)/float64(batchToggles))
}

// TestIncBatchEdgeCases pins the degenerate inputs.
func TestIncBatchEdgeCases(t *testing.T) {
	n := MustCompile(construct.MustBitonic(4))
	if rs := n.IncBatch(0, 0); rs != nil {
		t.Errorf("IncBatch k=0 = %v, want nil", rs)
	}
	if rs := n.IncBatch(0, -5); rs != nil {
		t.Errorf("IncBatch k<0 = %v, want nil", rs)
	}
	rs := n.IncBatch(3, 1)
	if RangeTotal(rs) != 1 || len(rs) != 1 || rs[0].First != 0 || rs[0].Count != 1 {
		t.Errorf("IncBatch k=1 on fresh network = %+v, want one range holding value 0", rs)
	}
	if v := n.Inc(0); v != 1 {
		t.Errorf("Inc after batch = %d, want 1", v)
	}
}

func BenchmarkIncBatch(b *testing.B) {
	n := MustCompile(construct.MustBitonic(16))
	for _, k := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n.IncBatch(i, k)
			}
			// Report per-token cost next to the per-call ns/op.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/token")
		})
	}
}
