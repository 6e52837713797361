package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/network"
)

// heatRamp maps intensity 0..1 to an ASCII shade, coarse to hot.
const heatRamp = " .:-=+*#%@"

func heatCell(count, max uint64) byte {
	if max == 0 || count == 0 {
		return heatRamp[0]
	}
	i := int(float64(count) / float64(max) * float64(len(heatRamp)-1))
	if i <= 0 {
		i = 1 // non-zero traffic always renders visibly
	}
	if i >= len(heatRamp) {
		i = len(heatRamp) - 1
	}
	return heatRamp[i]
}

// Heatmap renders per-balancer traffic — e.g. the toggle counts of a
// Collector snapshot — over the network's layer structure: one row per
// layer, one cell per balancer (in index order within the layer), shaded
// by count relative to the hottest balancer. It makes contention visible:
// B(w) spreads traffic evenly per layer, a counting tree funnels
// everything through its root, and a faulty run shows the stalled
// balancer's queue upstream of it.
//
// counts must be indexed by balancer (len ≥ net.Size(); extra entries are
// ignored).
func Heatmap(net *network.Network, counts []uint64) string {
	if len(counts) < net.Size() {
		return fmt.Sprintf("heatmap: %d counts for %d balancers\n", len(counts), net.Size())
	}
	layers := make(map[int][]int)
	maxDepth := 0
	var max uint64
	var total uint64
	hottest := 0
	for b := 0; b < net.Size(); b++ {
		d := net.BalancerDepth(b)
		layers[d] = append(layers[d], b)
		if d > maxDepth {
			maxDepth = d
		}
		total += counts[b]
		if counts[b] > max {
			max, hottest = counts[b], b
		}
	}

	var out strings.Builder
	fmt.Fprintf(&out, "balancer traffic: %d toggles over %d balancers in %d layers; hottest b%d (layer %d) = %d\n",
		total, net.Size(), maxDepth, hottest, net.BalancerDepth(hottest), max)
	fmt.Fprintf(&out, "scale: '%s' = 0 .. max, one cell per balancer\n", heatRamp)
	for d := 1; d <= maxDepth; d++ {
		bals := layers[d]
		sort.Ints(bals)
		var cells []byte
		var layerTotal uint64
		for _, b := range bals {
			cells = append(cells, heatCell(counts[b], max))
			layerTotal += counts[b]
		}
		fmt.Fprintf(&out, "layer %2d |%s| %8d toggles  (b%d..b%d)\n",
			d, cells, layerTotal, bals[0], bals[len(bals)-1])
	}
	return out.String()
}
