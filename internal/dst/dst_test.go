package dst

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

// -dst.seeds widens the in-test sweep; CI's sim job runs the big sweeps
// through cmd/countsim instead, so the package test stays fast.
var seedCount = flag.Uint64("dst.seeds", 120, "seeds swept by TestSeedsPass")

// TestSeedsPass sweeps generated scenarios across every flavor and
// requires a clean invariant audit from each.
func TestSeedsPass(t *testing.T) {
	flavors := map[string]int{}
	for seed := uint64(1); seed <= *seedCount; seed++ {
		res, err := Run(seed, RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			t.Errorf("seed %d (%s) violations:\n  %s\ntrace:\n%s",
				seed, res.Scenario.Flavor, strings.Join(res.Violations, "\n  "), res.Trace)
		}
		flavors[res.Scenario.Flavor]++
	}
	t.Logf("flavors over %d seeds: %v", *seedCount, flavors)
	for _, f := range []string{"clean", "faulty", "partition", "pressure", "mixed", "udp"} {
		if flavors[f] == 0 {
			t.Errorf("flavor %q never generated in %d seeds", f, *seedCount)
		}
	}
}

// TestReplayByteIdentical is the determinism contract: running a seed
// twice produces byte-identical traces, which is what makes a failing
// seed replayable — and each trace matches the digest an earlier build
// pinned in testdata/trace.sha256, so no commit changes one unnoticed.
func TestReplayByteIdentical(t *testing.T) {
	traces := map[uint64][]byte{}
	for seed := uint64(1); seed <= 40; seed++ {
		a, err := Run(seed, RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(seed, RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(a.Trace, b.Trace) {
			t.Fatalf("seed %d: traces differ between runs\nrun1:\n%s\nrun2:\n%s", seed, a.Trace, b.Trace)
		}
		traces[seed] = a.Trace
	}
	pinTraces(t, "single", traces)
}

// TestScenarioGenerationDeterministic pins that a seed expands to the
// same scenario every time (the trace header is the full rendering).
func TestScenarioGenerationDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := GenScenario(seed), GenScenario(seed)
		if a.Header() != b.Header() {
			t.Fatalf("seed %d: scenario generation not deterministic", seed)
		}
	}
}

// TestSeedsAreDistinct guards against a degenerate generator: different
// seeds must produce different scenarios (not necessarily all, but
// nearly so).
func TestSeedsAreDistinct(t *testing.T) {
	headers := map[string]uint64{}
	for seed := uint64(1); seed <= 100; seed++ {
		sc := GenScenario(seed)
		h := sc.Header()
		if prev, dup := headers[h]; dup {
			t.Fatalf("seeds %d and %d expand to identical scenarios", prev, seed)
		}
		headers[h] = seed
	}
}

// TestErrorPathsExercised sweeps until both shed (backpressure) and
// retry (timeout) client paths have been observed — the generated
// scenario space must actually reach them.
func TestErrorPathsExercised(t *testing.T) {
	cats := map[string]int{}
	for seed := uint64(1); seed <= 400; seed++ {
		res, err := Run(seed, RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, op := range res.Ops {
			if op.Err != "" {
				cats[strings.TrimPrefix(op.Err, "dial:")]++
			}
		}
		if cats["backpressure"] > 0 && cats["timeout"] > 0 {
			t.Logf("error categories after %d seeds: %v", seed, cats)
			return
		}
	}
	t.Fatalf("error paths not exercised in 400 seeds: %v", cats)
}
