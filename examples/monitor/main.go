// Command monitor shows live consistency auditing: a counting-network
// counter under concurrent load with a streaming monitor attached, the way
// a deployment would watch a production counter. The monitor implements
// the paper's Section 5.1 token definitions incrementally (small state, no
// transcript), flagging each non-linearizable or non-sequentially-
// consistent operation the moment it completes. A telemetry collector
// rides the same run, so the report pairs consistency fractions with
// traffic counts, Inc latency quantiles and a balancer heatmap.
package main

import (
	"fmt"
	"os"
	"time"

	countingnet "repro"
)

func main() {
	const (
		workers = 12
		perWork = 3_000
	)
	spec := countingnet.MustBitonic(8)
	ctr := countingnet.MustCompile(spec)
	mon := countingnet.NewOnlineMonitor()
	col := countingnet.NewTelemetryCollectorFor(spec)
	ctr.SetObserver(col)

	w := countingnet.Workload{Workers: workers, OpsPerWorker: perWork, Monitor: mon}
	start := time.Now()
	recs := w.Run(ctr)
	elapsed := time.Since(start)

	rep := countingnet.Audit(recs, int64(len(recs)))
	if rep.Duplicates != 0 || rep.OutOfRange != 0 {
		fmt.Fprintf(os.Stderr, "counting broken: %+v\n", rep)
		os.Exit(1)
	}
	f := mon.Fractions()
	fmt.Printf("%d operations in %v, audited live:\n", f.Total, elapsed.Round(time.Millisecond))
	fmt.Printf("  non-linearizable: %d (F_nl = %.6f)\n", f.NonLin, f.NonLinFraction())
	fmt.Printf("  non-seq-consistent: %d (F_nsc = %.6f)\n", f.NonSC, f.NonSCFraction())
	fmt.Printf("  out-of-order reports (clock skew evidence): %d\n", mon.TotalReordered)
	fmt.Println()
	fmt.Println("Offline audit of the full transcript agrees:")
	fmt.Printf("  %v\n", rep.SC.Fractions())

	snap := col.Snapshot()
	fmt.Println()
	fmt.Printf("Telemetry for the same run: %s\n", snap.Summary())
	fmt.Println()
	fmt.Println(countingnet.Heatmap(spec, snap.Toggles))
}
