package dst

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/construct"
	"repro/internal/network"
	"repro/internal/runtime"
)

// checkSeeds runs seeds 1–5 with ov pinned, each against a fresh
// compile of spec (nil: the default bitonic network), and fails on any
// invariant violation.
func checkSeeds(t *testing.T, ov overrides, spec *network.Network) {
	t.Helper()
	for seed := uint64(1); seed <= 5; seed++ {
		var opts RunOptions
		if spec != nil {
			opts.backend = runtime.MustCompile(spec)
		}
		res, err := RunScenario(genScenarioWith(seed, ov), opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d (%s) violations:\n  %s", seed, res.Scenario.Flavor, strings.Join(res.Violations, "\n  "))
		}
	}
}

// TestDaemonSim runs every network kind countd serves (-net) at width 8
// in both of its modes (-mode), with that network compiled as the
// backend. The scenario width is the compiled fan-in, not 8: a tree has
// one input wire. countd -mode sc serves each request in the mode it
// asks for, so the sc cases leave the seed its own mix; -mode lin serves
// every operation LIN.
func TestDaemonSim(t *testing.T) {
	for _, n := range []struct {
		kind string
		spec *network.Network
	}{
		{"bitonic", construct.MustBitonic(8)},
		{"periodic", construct.MustPeriodic(8)},
		{"tree", construct.MustTree(8)},
	} {
		for _, mode := range []string{"sc", "lin"} {
			t.Run(n.kind+"/"+mode, func(t *testing.T) {
				ov := overrides{Width: n.spec.Width()}
				if mode == "lin" {
					ov.Mode = "lin"
				}
				checkSeeds(t, ov, n.spec)
			})
		}
	}
}

// TestLoadSim runs countload's client-side configuration, its client
// count (-g) and its mode (-mode), against the simulated server.
func TestLoadSim(t *testing.T) {
	for _, g := range []int{1, 3, 8} {
		for _, mode := range []string{"sc", "lin"} {
			t.Run(fmt.Sprintf("g=%d/%s", g, mode), func(t *testing.T) {
				checkSeeds(t, overrides{Workers: g, Mode: mode}, nil)
			})
		}
	}
}
