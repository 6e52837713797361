// Command netcounter is the serving-layer view of the paper's central
// tradeoff on one node, measured across a real socket: the price of
// linearizability is waiting (§1.1, after HSW96), and a server with one
// sweeper already waits — it runs one traversal at a time, so every
// sweep's values lie above the previous sweep's.
//
// It starts an in-process server for B(8) on loopback, connects two
// remote clients, and runs the same workload twice:
//
//   - SC phase: increments carry ModeSC; both clients combine them into
//     TIncBatch frames and the server folds frames from both connections
//     into shared IncBatch sweeps. Sequential consistency would allow a
//     value handed out "late" relative to real time; one sweeper never
//     does it, so the streaming monitor reads F_nl = 0 here too.
//
//   - LIN phase: increments carry ModeLIN and ride the same combining
//     and the same sweeps. The monitor must report F_nl = 0 — the
//     program exits non-zero if it does not, making this example a
//     checked claim rather than a printout.
//
// The gap the paper prices opens where traversals cannot be made
// sequential: across the nodes of a cluster (countd -cluster-listen).
//
// Both phases audit uniqueness: no value may ever be handed to two
// callers, whatever the mode.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	countingnet "repro"
)

const (
	width      = 8
	clients    = 2  // remote connections
	workers    = 32 // concurrent workers per connection
	opsPerWkr  = 25 // sequential increments per worker
	totalOps   = clients * workers * opsPerWkr
	windowSize = 64
)

func main() {
	if err := demo(); err != nil {
		fmt.Fprintln(os.Stderr, "netcounter:", err)
		os.Exit(1)
	}
}

func demo() error {
	spec, _, err := countingnet.Bitonic(width)
	if err != nil {
		return err
	}
	rt, err := countingnet.Compile(spec)
	if err != nil {
		return err
	}
	stats := countingnet.NewServerStats(0)
	srv := countingnet.NewServer(rt, countingnet.ServerOptions{Stats: stats})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()

	fmt.Printf("netcounter: B(%d) served at %s; %d clients x %d workers x %d ops per phase\n\n",
		width, addr, clients, workers, opsPerWkr)

	scFrac, err := phase(addr.String(), countingnet.ModeSC)
	if err != nil {
		return fmt.Errorf("SC phase: %w", err)
	}
	fmt.Printf("SC  mode: %4d ops   F_nl = %.4f   F_nsc = %.4f   (combined sweeps; reordering against real time is allowed)\n",
		scFrac.Total, scFrac.NonLinFraction(), scFrac.NonSCFraction())

	linFrac, err := phase(addr.String(), countingnet.ModeLIN)
	if err != nil {
		return fmt.Errorf("LIN phase: %w", err)
	}
	fmt.Printf("LIN mode: %4d ops   F_nl = %.4f   F_nsc = %.4f   (the same sweeps; real-time order is the sweeper's wait)\n",
		linFrac.Total, linFrac.NonLinFraction(), linFrac.NonSCFraction())

	snap := stats.Snapshot()
	frames := snap.SCOps + snap.LINOps
	fmt.Printf("\nserver: %d tokens arrived in %d request frames (%d SC, %d LIN; client re-batching %.1fx),\n",
		snap.SweepTokens, frames, snap.SCOps, snap.LINOps, float64(snap.SweepTokens)/float64(max64(frames, 1)))
	fmt.Printf("        served in %d sweeps\n", snap.Sweeps)

	// The checked claim: linearizable service means zero non-linearizable
	// observations, full stop.
	if linFrac.NonLin != 0 {
		return fmt.Errorf("LIN phase reported %d non-linearizable ops; linearizability was violated", linFrac.NonLin)
	}
	fmt.Println("\nok: LIN phase linearizable (F_nl = 0); both phases handed out unique values")
	return nil
}

func max64(v, min uint64) uint64 {
	if v < min {
		return min
	}
	return v
}

// phase runs one workload pass in the given mode and returns the
// consistency fractions the monitor computed from what the remote
// clients actually observed.
func phase(addr string, mode countingnet.ConsistencyMode) (countingnet.Fractions, error) {
	mon := countingnet.NewOnlineMonitor()
	var frac countingnet.Fractions

	pool := make([]*countingnet.RemoteCounter, clients)
	for i := range pool {
		c, err := countingnet.DialCounter(addr, countingnet.RemoteOptions{
			Mode:   mode,
			Window: windowSize,
		})
		if err != nil {
			return frac, err
		}
		defer c.Close()
		pool[i] = c
	}

	var (
		mu   sync.Mutex
		seen = make(map[int64]int, totalOps)
		wg   sync.WaitGroup
		base = time.Now()
		fail error
	)
	for w := 0; w < clients*workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := pool[w%clients]
			for i := 0; i < opsPerWkr; i++ {
				s := time.Since(base).Nanoseconds()
				v := c.Inc(w)
				e := time.Since(base).Nanoseconds()
				mu.Lock()
				if v < 0 {
					fail = fmt.Errorf("worker %d: increment failed", w)
				} else {
					seen[v]++
					mon.Report(w, v, s, e)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if fail != nil {
		return frac, fail
	}
	for v, n := range seen {
		if n > 1 {
			return frac, fmt.Errorf("value %d observed %d times; uniqueness was violated", v, n)
		}
	}
	return mon.Fractions(), nil
}
