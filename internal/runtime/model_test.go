package runtime

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/construct"
	"repro/internal/network"
)

// modelTwin runs the same tokens through network.State, the paper's
// one-step-at-a-time semantics, and counts how often each balancer fired:
// the compiled toggle holds that count, the model only its residue.
type modelTwin struct {
	st     *network.State
	visits []int64
}

func newModelTwin(spec *network.Network) *modelTwin {
	return &modelTwin{st: network.NewState(spec), visits: make([]int64, spec.Size())}
}

// traverse shepherds one token in from an arbitrary caller wire, reduced
// the way the compiled network documents: modulo the fan-in, never
// negative.
func (m *modelTwin) traverse(wire int) int64 {
	w := m.st.Network().FanIn()
	v, steps := m.st.TraversePath(((wire % w) + w) % w)
	for _, s := range steps {
		if s.Kind == network.StepBalancer {
			m.visits[s.Balancer]++
		}
	}
	return v
}

// modelOps are the compiled entry points the model is checked against,
// each taking k tokens in from one wire.
var modelOps = []struct {
	name string
	run  func(n *Network, wire, k int) []int64
}{
	{"Inc", func(n *Network, wire, _ int) []int64 { return []int64{n.Inc(wire)} }},
	{"IncCtx", func(n *Network, wire, _ int) []int64 {
		v, err := n.IncCtx(context.Background(), wire)
		if err != nil {
			panic(err)
		}
		return []int64{v}
	}},
	{"IncCAS", func(n *Network, wire, _ int) []int64 { return []int64{n.IncCAS(wire)} }},
	{"IncBatch", func(n *Network, wire, k int) []int64 { return ExpandRanges(nil, n.IncBatch(wire, k)) }},
}

// TestIncMatchesModel is the differential test of the compiled traversal:
// seeded wire sequences, negative and out-of-range wires included, run
// through Inc, IncCtx, IncCAS and IncBatch (each alone, then mixed) and
// through network.State.Traverse. After every op the values, every
// balancer's toggle and every sink's count must be equal. The specs cover
// batchSpecs plus a fan-out-1 and a fan-out-5 balancer, so every branch
// of port selection runs: the fan-out-2 fast path, masks, the
// multiply-high, and ports read from the line and from routes.
func TestIncMatchesModel(t *testing.T) {
	specs := batchSpecs(t)
	for _, f := range []int{1, 5} {
		s, _, err := construct.SingleBalancer(f)
		if err != nil {
			t.Fatal(err)
		}
		specs[fmt.Sprintf("balancer-%d", f)] = batchSpec{s, true}
	}
	for name, bs := range specs {
		for mode := 0; mode <= len(modelOps); mode++ {
			label := "mixed"
			if mode < len(modelOps) {
				label = modelOps[mode].name
			}
			t.Run(name+"/"+label, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(7*mode + len(name))))
				n, model := MustCompile(bs.spec), newModelTwin(bs.spec)
				w := bs.spec.FanIn()
				for op := 0; op < 400; op++ {
					wire := rng.Intn(6*w) - 3*w
					switch rng.Intn(20) {
					case 0:
						wire = math.MinInt
					case 1:
						wire = math.MaxInt
					}
					o := modelOps[rng.Intn(len(modelOps))]
					if mode < len(modelOps) {
						o = modelOps[mode]
					}
					k := 1
					if o.name == "IncBatch" {
						k = 1 + rng.Intn(9)
					}
					got := o.run(n, wire, k)
					want := make([]int64, k)
					for i := range want {
						want[i] = model.traverse(wire)
					}
					if o.name == "IncBatch" {
						// A batch hands its values out grouped by sink.
						slices.Sort(got)
						slices.Sort(want)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("op %d: %s(wire %d, k %d) = %v, model %v", op, o.name, wire, k, got, want)
					}
					checkAgainstModel(t, op, n, model)
				}
			})
		}
	}
}

// checkAgainstModel compares the compiled network's whole mutable state
// with the model's.
func checkAgainstModel(t *testing.T, op int, n *Network, m *modelTwin) {
	t.Helper()
	spec := m.st.Network()
	for b := range n.toggles {
		tg := n.toggles[b].v.Load()
		if tg != m.visits[b] || int(tg%int64(spec.Balancer(b).FanOut)) != m.st.BalancerState(b) {
			t.Fatalf("op %d: balancer %d toggle %d, model %d visits in state %d", op, b, tg, m.visits[b], m.st.BalancerState(b))
		}
	}
	for j := range n.counters {
		issued := (n.counters[j].v.Load() - int64(j)) / int64(n.wOut)
		if issued != m.st.SinkCount(j) {
			t.Fatalf("op %d: sink %d issued %d, model %d", op, j, issued, m.st.SinkCount(j))
		}
	}
}
