// Command countsim sweeps the deterministic whole-system simulation
// (internal/dst) across many seeds, or replays a single seed. Each seed
// expands into a full scenario — network width, worker count, op mix,
// server tuning, fault schedule — and runs the real client, wire
// protocol and server on a virtual clock with an in-memory transport.
// After each run the protocol invariants are audited: no duplicate
// mints, values within [0, issued), the step property and gap-free
// delivery on clean runs, F_nl = 0 for linearizable ops, per-worker
// session order (counted, not failed, in the cluster flavor), retry and
// timeout budgets respected, and a clean drain. A sweep prints per flavor
// the seeds that broke session order, the largest displacement k (how
// far a value fell below one an already-answered op of its mode got),
// and F_nl of SC values: the share of SC ops an already-answered SC op
// outran.
//
// The same seed always replays the same execution, byte for byte, so a
// failing sweep prints the seed and the fix loop is:
//
//	countsim -seeds 1000                 # CI sweep; prints failing seeds
//	countsim -seed 4217 -trace           # replay one failure, full trace
//
// That the audit can fail is proved outside this command: `make
// mutants` applies each patch under testdata/mutants (the first,
// dup-mint, makes the backend re-serve value ranges it already handed
// out) to a copy of the tree and requires its named check, often a
// countsim sweep, to go red.
//
// -flight traces every simulated request through the flight recorder
// (internal/flightrec): the span-tree invariants join the audit, and a
// failing seed's black-box dump lands next to its trace. Replaying one
// seed with -flight -artifacts persists the dump unconditionally — the
// same seed must produce byte-identical flight output on every run.
//
// Usage:
//
//	countsim -seeds 1000 -artifacts /tmp/sim
//	countsim -seed 42 -trace
//	countsim -seed 42 -flight -artifacts /tmp/sim
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/dst"
)

type options struct {
	seeds     uint64 // sweep size (0: single-seed mode via -seed)
	start     uint64 // first seed of the sweep
	seed      uint64 // single seed to replay
	trace     bool   // print the deterministic trace (single-seed mode)
	flight    bool   // trace every request into the flight recorder
	cluster   bool   // run the multi-daemon cluster flavor instead
	artifacts string // write failing-seed traces into this directory
}

func main() {
	var o options
	flag.Uint64Var(&o.seeds, "seeds", 0, "sweep this many seeds (0: single-seed mode)")
	flag.Uint64Var(&o.start, "start", 1, "first seed of the sweep")
	flag.Uint64Var(&o.seed, "seed", 0, "replay exactly this seed")
	flag.BoolVar(&o.trace, "trace", false, "print the deterministic trace (with -seed)")
	flag.BoolVar(&o.flight, "flight", false, "record every request's stage spans; failing seeds also dump seed-N.flight.json (with -artifacts) and the span-tree invariants join the audit")
	flag.BoolVar(&o.cluster, "cluster", false, "expand seeds into multi-daemon cluster scenarios (gossip, elections, kills, partitions) instead of single-server ones")
	flag.StringVar(&o.artifacts, "artifacts", "", "write failing-seed traces into this directory")
	flag.Parse()

	code, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "countsim:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(o options, out *os.File) (int, error) {
	if o.seeds == 0 && o.seed == 0 {
		return 2, fmt.Errorf("nothing to do: pass -seeds N to sweep or -seed X to replay")
	}
	if o.cluster && o.flight {
		return 2, fmt.Errorf("-cluster runs its own universe: it does not compose with -flight")
	}
	if o.artifacts != "" {
		if err := os.MkdirAll(o.artifacts, 0o755); err != nil {
			return 2, err
		}
	}
	if o.seeds == 0 {
		return replay(o, out)
	}
	return sweep(o, out)
}

// seedRun is one seed's outcome, whichever flavor ran it.
type seedRun struct {
	*dst.Outcome
	flavor  string
	summary string // the flavor's accounting for the replay line
}

// runSeed runs one seed of the flavor o selects: a single server, or a
// whole multi-daemon universe — gossip, elections, grants, LIN sweeps,
// the chaos schedule — audited cluster-wide (global no-duplicate-mint,
// grant coverage, gap accounting, LIN monotonicity, full drain).
func runSeed(o options, seed uint64) (seedRun, error) {
	if o.cluster {
		res, err := dst.RunCluster(seed)
		if err != nil {
			return seedRun{}, err
		}
		return seedRun{&res.Outcome, res.Scenario.Flavor, fmt.Sprintf(
			"%d nodes, %d ops, granted %d, issued %d, delivered %d, %d steps",
			res.Scenario.Nodes, len(res.Ops), res.Granted, res.Issued, res.Delivered, res.Steps)}, nil
	}
	res, err := dst.Run(seed, dst.RunOptions{Flight: o.flight})
	if err != nil {
		return seedRun{}, err
	}
	return seedRun{&res.Outcome, res.Scenario.Flavor, fmt.Sprintf(
		"%d ops, issued %d, delivered %d, %d steps",
		len(res.Ops), res.Issued, res.Delivered, res.Steps)}, nil
}

// artifact writes one of a seed's artifacts ("trace" or "flight.json")
// into dir and returns its path. Cluster seeds carry their own prefix,
// so both flavors' sweeps can share one directory.
func artifact(dir string, cluster bool, seed uint64, ext string, data []byte) (string, error) {
	name := fmt.Sprintf("seed-%d.%s", seed, ext)
	if cluster {
		name = "cluster-" + name
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}

// replay runs one seed and reports it in full: scenario summary,
// violations, and (with -trace) the byte-stable trace a failing sweep
// told the operator to come look at.
func replay(o options, out *os.File) (int, error) {
	r, err := runSeed(o, o.seed)
	if err != nil {
		return 2, fmt.Errorf("seed %d: %w", o.seed, err)
	}
	if o.trace {
		out.Write(r.Trace)
	} else {
		fmt.Fprintf(out, "seed %d: flavor %s, %s\n", r.Seed, r.flavor, r.summary)
		for _, v := range r.Violations {
			fmt.Fprintf(out, "  violation: %s\n", v)
		}
	}
	// Traced replays always persist the flight dump when an artifact
	// directory is given — diffing two runs of the same seed is how the
	// byte-identical tracing contract is checked from the command line.
	if o.flight && o.artifacts != "" {
		path, err := artifact(o.artifacts, o.cluster, o.seed, "flight.json", r.Flight)
		if err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "countsim: flight dump written to %s\n", path)
	}
	if o.artifacts != "" && r.Failed() {
		path, err := artifact(o.artifacts, o.cluster, o.seed, "trace", r.Trace)
		if err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "countsim: trace written to %s\n", path)
	}
	name := "seed"
	if o.cluster {
		name = "cluster seed"
	}
	if r.Failed() {
		if !o.trace {
			fmt.Fprintf(out, "countsim: %s %d FAILED (%d violations); rerun with -trace for the full schedule\n",
				name, o.seed, len(r.Violations))
		}
		return 1, nil
	}
	fmt.Fprintf(out, "countsim: %s %d ok\n", name, o.seed)
	return 0, nil
}

// line is a flavor's summary line in a sweep.
func line(flavor string, t *dst.Tally) string {
	return fmt.Sprintf("countsim: %s: %s", flavor, t.Summary())
}

// sweep runs the seed range in order. dst.NewWorld pins the process to
// one P, so concurrent worlds would only interleave.
func sweep(o options, out *os.File) (int, error) {
	runs := make([]seedRun, o.seeds)
	flavors := map[string]*dst.Tally{}
	var failing []uint64
	for i := range runs {
		seed := o.start + uint64(i)
		r, err := runSeed(o, seed)
		if err != nil {
			return 2, fmt.Errorf("seed %d: %w", seed, err)
		}
		runs[i] = r
		if flavors[r.flavor] == nil {
			flavors[r.flavor] = &dst.Tally{}
		}
		flavors[r.flavor].Add(r.Outcome)
		if r.Failed() {
			failing = append(failing, seed)
		}
	}

	var names []string
	for f := range flavors {
		names = append(names, f)
	}
	sort.Strings(names)
	var mix []string
	for _, f := range names {
		mix = append(mix, fmt.Sprintf("%s %d", f, flavors[f].Seeds))
	}
	fmt.Fprintf(out, "countsim: %d seeds [%d..%d], %d failing (%s)\n",
		o.seeds, o.start, o.start+o.seeds-1, len(failing), strings.Join(mix, ", "))
	for _, f := range names {
		fmt.Fprintln(out, line(f, flavors[f]))
	}

	replayFlags := ""
	if o.flight {
		replayFlags += " -flight"
	}
	if o.cluster {
		replayFlags += " -cluster"
	}
	for _, seed := range failing {
		r := &runs[seed-o.start]
		fmt.Fprintf(out, "seed %d (%s): %d violations\n", seed, r.flavor, len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(out, "  %s\n", v)
		}
		if o.artifacts != "" {
			path, err := artifact(o.artifacts, o.cluster, seed, "trace", r.Trace)
			if err != nil {
				return 2, err
			}
			fmt.Fprintf(out, "  trace: %s\n", path)
			if len(r.Flight) > 0 {
				path, err := artifact(o.artifacts, o.cluster, seed, "flight.json", r.Flight)
				if err != nil {
					return 2, err
				}
				fmt.Fprintf(out, "  flight: %s\n", path)
			}
		}
		fmt.Fprintf(out, "  replay: countsim -seed %d -trace%s\n", seed, replayFlags)
	}

	if len(failing) > 0 {
		return 1, nil
	}
	fmt.Fprintln(out, "countsim: all invariants green")
	return 0, nil
}
