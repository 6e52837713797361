// Command idserver sketches the paper's motivating use of counting: a
// concurrent unique-id allocator (think memory addresses or routing-
// destination ids). A pool of producer goroutines draws ids from three
// different counters — a single atomic fetch-and-increment, a mutex
// counter and a B(16) counting network — under identical load, then the
// run is audited: the counting property (no duplicate or missing ids),
// wall-clock linearizability, and per-producer sequential consistency.
//
// The audit shows what the paper is about: all three allocators count
// correctly, the centralized ones are linearizable, and the counting
// network trades real-time ordering (which an id allocator rarely needs)
// for distributed, low-contention operation.
//
// A second phase demonstrates block allocation: producers that can use ids
// in blocks call IncBatch, which reserves a whole block with one atomic
// operation per balancer instead of one per id per layer — the telemetry
// collector shows the atomic-operation savings directly.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	countingnet "repro"
)

func main() {
	const (
		producers = 16
		idsEach   = 2_000
	)
	// The network allocator carries a telemetry collector: the audit below
	// pairs its consistency verdicts with where the tokens actually went.
	spec := countingnet.MustBitonic(16)
	network := countingnet.MustCompile(spec)
	col := countingnet.NewTelemetryCollectorFor(spec)
	network.SetObserver(col)
	counters := []struct {
		name string
		c    countingnet.Counter
	}{
		{"atomic fetch&inc", new(countingnet.AtomicCounter)},
		{"mutex counter", new(countingnet.MutexCounter)},
		{"bitonic B(16)", network},
	}

	fmt.Printf("%d producers × %d ids each (%d total)\n\n", producers, idsEach, producers*idsEach)
	fmt.Printf("%-18s %12s %10s %8s %8s\n", "allocator", "throughput", "elapsed", "lin?", "SC?")
	for _, tc := range counters {
		w := countingnet.Workload{Workers: producers, OpsPerWorker: idsEach}
		start := time.Now()
		recs := w.Run(tc.c)
		elapsed := time.Since(start)

		rep := countingnet.Audit(recs, int64(len(recs)))
		if rep.Duplicates != 0 || rep.OutOfRange != 0 {
			fmt.Fprintf(os.Stderr, "%s: id allocation broken: %+v\n", tc.name, rep)
			os.Exit(1)
		}
		fmt.Printf("%-18s %9.2f M/s %10v %8v %8v\n",
			tc.name,
			float64(len(recs))/elapsed.Seconds()/1e6,
			elapsed.Round(time.Millisecond),
			rep.SC.NonLin == 0,
			rep.SessionBreaks() == 0)
	}
	snap := col.Snapshot()
	fmt.Printf("\nnetwork telemetry: %s\n", snap.Summary())

	// Phase 2: block allocation. Each producer draws its ids in blocks of
	// `block` via IncBatch — one atomic op per balancer per block instead
	// of one per id per layer — on a fresh instrumented network, so the
	// toggle counts below are the batch path's alone.
	const block = 256
	batchNet := countingnet.MustCompile(spec)
	batchCol := countingnet.NewTelemetryCollectorFor(spec)
	batchNet.SetObserver(batchCol)
	ids := make([][]int64, producers)
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var mine []int64
			for len(mine) < idsEach {
				mine = countingnet.ExpandRanges(mine, batchNet.IncBatch(p, block))
			}
			ids[p] = mine
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []int64
	for _, vs := range ids {
		all = append(all, vs...)
	}
	if rep := countingnet.Audit([]countingnet.AuditRecord{{Values: all}}, int64(len(all))); rep.Duplicates != 0 || rep.OutOfRange != 0 {
		fmt.Fprintf(os.Stderr, "block allocation broken: %+v\n", rep)
		os.Exit(1)
	}
	bs := batchCol.Snapshot()
	fmt.Printf("\nblock allocation: %d ids in %d-id blocks: %9.2f M/s, %d atomic toggle ops (%.1f per id; serial traversal needs %d)\n",
		len(all), block, float64(len(all))/elapsed.Seconds()/1e6,
		bs.TotalToggles(), float64(bs.TotalToggles())/float64(len(all)), spec.Depth())

	fmt.Println("\nEvery allocator hands out each id exactly once; the network does it without a single hot spot.")
}
