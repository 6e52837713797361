package dst

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// costGoldenFile is the simulator's cost ledger: one line per flavor,
// each a Tally over the first costSeeds seeds of its universe. Its
// numbers count simulated events, so they move only when the code does;
// a change that moves one says by how much and why. Regenerate with
// -update; `make sim-cost-diff BASE=<rev>` diffs another revision's.
var costGoldenFile = filepath.Join("testdata", "cost.golden")

// costSeeds is how many seeds of each universe, single and cluster, the
// ledger sums.
const costSeeds = 200

func TestCostGolden(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "# flavor, then its Tally over seeds 1-%d (go test ./internal/dst -run TestCostGolden -update)\n", costSeeds)
	for _, universe := range []string{"single", "cluster"} {
		tallies := map[string]*Tally{}
		get := func(flavor string) *Tally {
			if tallies[flavor] == nil {
				tallies[flavor] = &Tally{}
			}
			return tallies[flavor]
		}
		for seed := uint64(1); seed <= costSeeds; seed++ {
			if universe == "single" {
				res, err := Run(seed, RunOptions{})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				get(res.Scenario.Flavor).Add(&res.Outcome)
				continue
			}
			res, err := RunCluster(seed)
			if err != nil {
				t.Fatalf("cluster seed %d: %v", seed, err)
			}
			get(res.Scenario.Flavor).AddCluster(res)
		}
		names := make([]string, 0, len(tallies))
		for f := range tallies {
			names = append(names, f)
		}
		sort.Strings(names)
		for _, f := range names {
			fmt.Fprintf(&b, "%s %s\n", f, tallies[f].Cost())
		}
	}
	got := b.String()
	if *updateDigests {
		if err := os.WriteFile(costGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(costGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	for i, line := range strings.Split(got, "\n") {
		switch {
		case i >= len(want):
			t.Errorf("%s has no line %d; the code gives\n  %s", costGoldenFile, i+1, line)
		case line != want[i]:
			t.Errorf("%s line %d:\n  pinned %s\n  got    %s", costGoldenFile, i+1, want[i], line)
		}
	}
	if n := len(strings.Split(got, "\n")); len(want) > n {
		t.Errorf("%s has %d lines, the code gives %d", costGoldenFile, len(want), n)
	}
}
