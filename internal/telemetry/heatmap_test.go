package telemetry

import (
	"strings"
	"testing"

	"repro/internal/construct"
)

func TestHeatmapUniformLayers(t *testing.T) {
	spec := construct.MustBitonic(8)
	counts := make([]uint64, spec.Size())
	for b := range counts {
		counts[b] = 100 // perfectly even traffic
	}
	got := Heatmap(spec, counts)
	if !strings.Contains(got, "in 6 layers") {
		t.Errorf("B(8) heatmap should report 6 layers:\n%s", got)
	}
	rows := 0
	for _, line := range strings.Split(got, "\n") {
		if !strings.HasPrefix(line, "layer") {
			continue
		}
		rows++
		// Even traffic: every cell renders at full intensity.
		cells := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
		if cells != strings.Repeat("@", len(cells)) || cells == "" {
			t.Errorf("uneven cells %q in row %q", cells, line)
		}
	}
	if rows != spec.Depth() {
		t.Errorf("want one row per layer (%d), got %d:\n%s", spec.Depth(), rows, got)
	}
}

func TestHeatmapHotBalancer(t *testing.T) {
	spec := construct.MustBitonic(4)
	counts := make([]uint64, spec.Size())
	counts[2] = 1000
	counts[0] = 1
	got := Heatmap(spec, counts)
	if !strings.Contains(got, "hottest b2") {
		t.Errorf("hottest balancer not identified:\n%s", got)
	}
	// The barely-warm balancer must still be visible (non-blank cell).
	if !strings.Contains(got, string(heatRamp[1])) {
		t.Errorf("low-traffic balancer rendered blank:\n%s", got)
	}
}

func TestHeatmapShortCounts(t *testing.T) {
	spec := construct.MustBitonic(4)
	if got := Heatmap(spec, nil); !strings.Contains(got, "0 counts") {
		t.Errorf("short counts should degrade gracefully, got:\n%s", got)
	}
}
