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
// sequential: across the nodes of a cluster (countd -node-id).
//
// Both phases audit uniqueness: no value may ever be handed to two
// callers, whatever the mode.
package main

import (
	"fmt"
	"math"
	"os"

	countingnet "repro"
)

const (
	width      = 8
	clients    = 2  // remote connections
	workers    = 32 // concurrent workers per connection
	opsPerWkr  = 25 // sequential increments per worker
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
		snap.SweepTokens, frames, snap.SCOps, snap.LINOps, float64(snap.SweepTokens)/float64(max(frames, 1)))
	fmt.Printf("        served in %d sweeps\n", snap.Sweeps)

	// The checked claim: linearizable service means zero non-linearizable
	// observations, full stop.
	if linFrac.NonLin != 0 {
		return fmt.Errorf("LIN phase reported %d non-linearizable ops; linearizability was violated", linFrac.NonLin)
	}
	fmt.Println("\nok: LIN phase linearizable (F_nl = 0); both phases handed out unique values")
	return nil
}

// pool spreads a phase's workers over the remote clients.
type pool []*countingnet.RemoteCounter

func (p pool) Inc(w int) int64 { return p[w%len(p)].Inc(w) }

// phase runs one workload pass in the given mode and returns the
// consistency fractions the monitor computed from what the remote
// clients actually observed.
func phase(addr string, mode countingnet.ConsistencyMode) (countingnet.Fractions, error) {
	p := make(pool, clients)
	for i := range p {
		c, err := countingnet.DialCounter(addr, countingnet.RemoteOptions{
			Mode:   mode,
			Window: windowSize,
		})
		if err != nil {
			return countingnet.Fractions{}, err
		}
		defer c.Close()
		p[i] = c
	}
	mon := countingnet.NewOnlineMonitor()
	recs := countingnet.Workload{Workers: clients * workers, OpsPerWorker: opsPerWkr, Monitor: mon}.Run(p)
	// A failed increment returns -1, which the audit counts out of range.
	if rep := countingnet.Audit(recs, math.MaxInt64); rep.Duplicates != 0 || rep.OutOfRange != 0 {
		return countingnet.Fractions{}, fmt.Errorf("%d values handed out twice, %d increments failed", rep.Duplicates, rep.OutOfRange)
	}
	return mon.Fractions(), nil
}
