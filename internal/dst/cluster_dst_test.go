package dst

import (
	"bytes"
	"testing"
)

// TestClusterScenarioSweep runs a band of cluster seeds end to end and
// requires every invariant to hold: global no-duplicate-mint,
// grant coverage, gap accounting (delivered ≤ issued ≤ granted),
// cluster-wide LIN monotonicity, whitelisted errors only, full drain.
func TestClusterScenarioSweep(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	flavors := map[string]int{}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		res, err := RunCluster(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		flavors[res.Scenario.Flavor]++
		if res.Failed() {
			for _, v := range res.Violations {
				t.Errorf("seed %d (%s): %s", seed, res.Scenario.Flavor, v)
			}
			t.Fatalf("seed %d trace:\n%s", seed, res.Trace)
		}
		if res.Delivered == 0 {
			t.Fatalf("seed %d (%s): no ids delivered at all", seed, res.Scenario.Flavor)
		}
	}
	t.Logf("flavors over %d seeds: %v", seeds, flavors)
}

// TestClusterTraceDeterminism replays seeds of each flavor and requires
// byte-identical traces: the whole multi-daemon universe — gossip,
// elections, grants, forwards, kills, restarts, partitions — must be a
// pure function of the seed. Each trace also matches its digest in
// testdata/trace.sha256.
func TestClusterTraceDeterminism(t *testing.T) {
	// Pick one seed per flavor from the front of the seed space.
	picked := map[string]uint64{}
	for seed := uint64(1); seed <= 60 && len(picked) < 4; seed++ {
		sc := GenClusterScenario(seed)
		if _, ok := picked[sc.Flavor]; !ok {
			picked[sc.Flavor] = seed
		}
	}
	traces := map[uint64][]byte{}
	for flavor, seed := range picked {
		a, err := RunCluster(seed)
		if err != nil {
			t.Fatalf("%s seed %d run 1: %v", flavor, seed, err)
		}
		b, err := RunCluster(seed)
		if err != nil {
			t.Fatalf("%s seed %d run 2: %v", flavor, seed, err)
		}
		if !bytes.Equal(a.Trace, b.Trace) {
			i := 0
			for i < len(a.Trace) && i < len(b.Trace) && a.Trace[i] == b.Trace[i] {
				i++
			}
			lo, hi := i-120, i+120
			if lo < 0 {
				lo = 0
			}
			clip := func(tr []byte) []byte {
				h := hi
				if h > len(tr) {
					h = len(tr)
				}
				if lo >= h {
					return nil
				}
				return tr[lo:h]
			}
			t.Fatalf("%s seed %d: traces diverge at byte %d\nrun1: …%q…\nrun2: …%q…",
				flavor, seed, i, clip(a.Trace), clip(b.Trace))
		}
		traces[seed] = a.Trace
	}
	pinTraces(t, "cluster", traces)
}

// TestGenClusterScenarioSeparation pins what the cluster generator
// expands a seed into: node and worker counts in range, one plan per
// worker, a cluster flavor. It is its own expansion, so it cannot shift
// a single-server seed's; the single-flavor digests TestReplayByteIdentical
// checks pin that side.
func TestGenClusterScenarioSeparation(t *testing.T) {
	sc := GenClusterScenario(7)
	if sc.Nodes != 3 && sc.Nodes != 5 {
		t.Fatalf("nodes: %d", sc.Nodes)
	}
	if sc.Workers < 2 || sc.Workers > 5 {
		t.Fatalf("workers: %d", sc.Workers)
	}
	if len(sc.Plans) != sc.Workers {
		t.Fatalf("plans: %d for %d workers", len(sc.Plans), sc.Workers)
	}
	switch sc.Flavor {
	case "cluster-clean", "cluster-kill", "cluster-partition", "cluster-rolling":
	default:
		t.Fatalf("flavor: %q", sc.Flavor)
	}
}
