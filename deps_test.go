package countingnet

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestServingBinariesLinkServingStack pins what the serving binaries
// link: countd and countload import the serving packages directly, so
// neither pulls in this facade or the simulator and analysis packages.
// countsim is the one binary that runs the simulator.
func TestServingBinariesLinkServingStack(t *testing.T) {
	banned := []string{
		"repro",
		"repro/internal/dst",
		"repro/internal/core",
		"repro/internal/sim",
		"repro/internal/perfsim",
		"repro/internal/topology",
		"repro/internal/viz",
		"repro/internal/msgnet",
	}
	for _, cmd := range []string{"./cmd/countd", "./cmd/countload"} {
		out, err := exec.Command("go", "list", "-deps", cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("go list -deps %s: %v\n%s", cmd, err, out)
		}
		deps := strings.Fields(string(out))
		var internal []string
		for _, d := range deps {
			if strings.HasPrefix(d, "repro/internal/") {
				internal = append(internal, d)
			}
		}
		t.Logf("%s links %d internal packages", cmd, len(internal))
		for _, b := range banned {
			if slices.Contains(deps, b) {
				t.Errorf("%s links %s", cmd, b)
			}
		}
	}
}
