// Command linearizable demonstrates the two ways of strengthening a
// counting network's consistency that the paper contrasts:
//
//  1. Pacing (Theorem 4.1): each process waits a local delay
//     d(G)·(c_max − 2·c_min) between operations — cheap, local, and
//     sufficient for SEQUENTIAL consistency, but not for linearizability.
//  2. Waiting (HSW96): completions are serialized in value order —
//     sufficient for LINEARIZABILITY, but it reintroduces the very
//     bottleneck the network was built to avoid.
//
// The program drives both over the same B(8) network and audits the runs
// with wall-clock timestamps.
package main

import (
	"fmt"
	"os"
	"time"

	countingnet "repro"
)

func main() {
	const (
		workers = 8
		perWork = 300
	)
	spec := countingnet.MustBitonic(8)

	fmt.Println("1) Raw counting network (quiescently consistent):")
	raw := countingnet.MustCompile(spec)
	report(raw, workers, perWork, 0)

	fmt.Println("\n2) Paced processes (Theorem 4.1's local timer → sequential consistency):")
	paced := countingnet.MustCompile(spec)
	report(paced, workers, perWork, 50*time.Microsecond)

	fmt.Println("\n3) Waiting hand-off (HSW96-style → linearizability):")
	lin := countingnet.NewLinearizableCounter(countingnet.MustCompile(spec))
	report(lin, workers, perWork, 0)

	fmt.Println("\nPacing is local and keeps the network parallel; waiting is global and")
	fmt.Println("serializes completions — the trade-off Sections 1.1 and 4 are about.")
}

func report(c countingnet.Counter, workers, perWork int, pace time.Duration) {
	w := countingnet.Workload{Workers: workers, OpsPerWorker: perWork, Pace: pace}
	start := time.Now()
	recs := w.Run(c)
	elapsed := time.Since(start)

	rep := countingnet.Audit(recs, int64(len(recs)))
	if rep.Duplicates != 0 || rep.OutOfRange != 0 {
		fmt.Fprintf(os.Stderr, "counting broken: %+v\n", rep)
		os.Exit(1)
	}
	f := rep.SC.Fractions()
	fmt.Printf("   %5d ops in %8v | linearizable: %-5v | seq. consistent: %-5v | %v\n",
		len(recs), elapsed.Round(time.Millisecond), f.NonLin == 0, f.NonSC == 0, f)
}
