// Command quickstart shows the three-line happy path: build a bitonic
// counting network, compile it to its lock-free concurrent form, and have
// a crowd of goroutines draw values from it — then verify that the values
// are exactly 0..N-1 (no duplicates, no gaps) and print the network.
package main

import (
	"fmt"
	"os"

	countingnet "repro"
)

func main() {
	const (
		width   = 8   // network fan: 8 input wires, 8 counters
		workers = 16  // concurrent processes
		perWork = 500 // increments per process
	)

	spec, layout, err := countingnet.Bitonic(width)
	if err != nil {
		fmt.Fprintln(os.Stderr, "build:", err)
		os.Exit(1)
	}
	fmt.Printf("B(%d): %d balancers, depth %d\n\n", width, spec.Size(), spec.Depth())
	fmt.Println(countingnet.Render(spec, layout))

	ctr := countingnet.MustCompile(spec)
	recs := countingnet.Workload{Workers: workers, OpsPerWorker: perWork}.Run(ctr)
	if rep := countingnet.Audit(recs, int64(len(recs))); rep.Duplicates != 0 || rep.OutOfRange != 0 {
		fmt.Fprintf(os.Stderr, "counting property violated: %+v\n", rep)
		os.Exit(1)
	}
	fmt.Printf("%d workers drew %d values concurrently: exactly 0..%d, no duplicates, no gaps\n",
		workers, len(recs), len(recs)-1)
}
