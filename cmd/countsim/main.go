// Command countsim sweeps the deterministic whole-system simulation
// (internal/dst) across many seeds, or replays a single seed. Each seed
// expands into a full scenario — network width, worker count, op mix,
// server tuning, fault schedule — and runs the real client, wire
// protocol and server on a virtual clock with an in-memory transport.
// After each run the protocol invariants are audited: no duplicate
// mints, values within [0, issued), the step property and gap-free
// delivery on clean runs, F_nl = 0 for linearizable ops, retry/timeout
// budgets respected, and a clean drain.
//
// The same seed always replays the same execution, byte for byte, so a
// failing sweep prints the seed and the fix loop is:
//
//	countsim -seeds 1000                 # CI sweep; prints failing seeds
//	countsim -seed 4217 -trace           # replay one failure, full trace
//
// -bug injects a duplicate-mint fault into the backend (it occasionally
// re-serves value ranges it already handed out); with -expect-bug the
// sweep succeeds only if the injected bug is actually caught, which is
// how CI proves the harness detects real protocol violations rather
// than vacuously passing.
//
// -flight traces every simulated request through the flight recorder
// (internal/flightrec): the span-tree invariants join the audit, and a
// failing seed's black-box dump lands next to its trace. Replaying one
// seed with -flight -artifacts persists the dump unconditionally — the
// same seed must produce byte-identical flight output on every run.
//
// Usage:
//
//	countsim -seeds 1000 -par 8 -artifacts /tmp/sim
//	countsim -seeds 200 -bug -expect-bug
//	countsim -seed 42 -trace
//	countsim -seed 42 -flight -artifacts /tmp/sim
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/dst"
)

type options struct {
	seeds     uint64 // sweep size (0: single-seed mode via -seed)
	start     uint64 // first seed of the sweep
	seed      uint64 // single seed to replay
	par       int    // concurrent simulation worlds
	bug       bool   // inject the duplicate-mint canary into the backend
	expectBug bool   // succeed only if the canary is caught (CI self-check)
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
	flag.IntVar(&o.par, "par", runtime.GOMAXPROCS(0), "concurrent simulation worlds, interleaved on the one P internal/dst pins the process to")
	flag.BoolVar(&o.bug, "bug", false, "inject a duplicate-mint bug into the backend")
	flag.BoolVar(&o.expectBug, "expect-bug", false, "succeed only if the injected bug is caught (use with -bug)")
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
	if o.expectBug && !o.bug {
		return 2, fmt.Errorf("-expect-bug requires -bug")
	}
	if o.cluster && (o.bug || o.flight) {
		return 2, fmt.Errorf("-cluster runs its own universe: it composes with neither -bug nor -flight")
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

// replay runs one seed and reports it in full: scenario header,
// violations, and (with -trace) the byte-stable trace a failing sweep
// told the operator to come look at.
func replay(o options, out *os.File) (int, error) {
	if o.cluster {
		return replayCluster(o, out)
	}
	res, err := dst.Run(o.seed, dst.RunOptions{Bug: o.bug, Flight: o.flight})
	if err != nil {
		return 2, fmt.Errorf("seed %d: %w", o.seed, err)
	}
	if o.trace {
		out.Write(res.Trace)
	} else {
		fmt.Fprintf(out, "seed %d: flavor %s, %d ops, issued %d, delivered %d, %d steps\n",
			res.Seed, res.Scenario.Flavor, len(res.Ops), res.Issued, res.Delivered, res.Steps)
		for _, v := range res.Violations {
			fmt.Fprintf(out, "  violation: %s\n", v)
		}
	}
	// Traced replays always persist the flight dump when an artifact
	// directory is given — diffing two runs of the same seed is how the
	// byte-identical tracing contract is checked from the command line.
	if o.flight && o.artifacts != "" {
		fpath := filepath.Join(o.artifacts, fmt.Sprintf("seed-%d.flight.json", o.seed))
		if err := os.WriteFile(fpath, res.Flight, 0o644); err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "countsim: flight dump written to %s\n", fpath)
	}
	if saved, err := saveArtifact(o.artifacts, res); err != nil {
		return 2, err
	} else if saved != "" {
		fmt.Fprintf(out, "countsim: trace written to %s\n", saved)
	}
	if res.Failed() {
		if !o.trace {
			fmt.Fprintf(out, "countsim: seed %d FAILED (%d violations); rerun with -trace for the full schedule\n",
				o.seed, len(res.Violations))
		}
		return 1, nil
	}
	fmt.Fprintf(out, "countsim: seed %d ok\n", o.seed)
	return 0, nil
}

// replayCluster runs one cluster seed: a whole multi-daemon universe —
// gossip, elections, grants, LIN forwards, the chaos schedule — on the
// virtual clock, then the cluster-wide audit (global no-duplicate-mint,
// grant coverage, gap accounting, LIN monotonicity, full drain).
func replayCluster(o options, out *os.File) (int, error) {
	res, err := dst.RunCluster(o.seed)
	if err != nil {
		return 2, fmt.Errorf("seed %d: %w", o.seed, err)
	}
	if o.trace {
		out.Write(res.Trace)
	} else {
		fmt.Fprintf(out, "seed %d: flavor %s, %d nodes, %d ops, granted %d, issued %d, delivered %d, %d steps\n",
			res.Seed, res.Scenario.Flavor, res.Scenario.Nodes, len(res.Ops),
			res.Granted, res.Issued, res.Delivered, res.Steps)
		for _, v := range res.Violations {
			fmt.Fprintf(out, "  violation: %s\n", v)
		}
	}
	if o.artifacts != "" && res.Failed() {
		path := filepath.Join(o.artifacts, fmt.Sprintf("cluster-seed-%d.trace", res.Seed))
		if err := os.WriteFile(path, res.Trace, 0o644); err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "countsim: trace written to %s\n", path)
	}
	if res.Failed() {
		if !o.trace {
			fmt.Fprintf(out, "countsim: cluster seed %d FAILED (%d violations); rerun with -trace for the full schedule\n",
				o.seed, len(res.Violations))
		}
		return 1, nil
	}
	fmt.Fprintf(out, "countsim: cluster seed %d ok\n", o.seed)
	return 0, nil
}

// sweepResult is what one swept seed contributes to the report.
type sweepResult struct {
	seed       uint64
	flavor     string
	violations []string
	dupCaught  bool
	trace      []byte
	flight     []byte
	err        error
}

// sweep fans the seed range across -par worlds. Each world is fully
// self-contained (own virtual clock, own transport), so concurrent
// worlds cannot perturb determinism — the per-seed traces are identical
// to a serial run's. dst.NewWorld pins the process to one P, so the
// worlds interleave rather than run in parallel.
func sweep(o options, out *os.File) (int, error) {
	results := make([]sweepResult, o.seeds)
	seeds := make(chan uint64)
	var wg sync.WaitGroup
	for p := 0; p < max(o.par, 1); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				r := &results[seed-o.start]
				r.seed = seed
				if o.cluster {
					res, err := dst.RunCluster(seed)
					if err != nil {
						r.err = err
						continue
					}
					r.flavor = res.Scenario.Flavor
					r.violations = res.Violations
					r.trace = res.Trace
					continue
				}
				res, err := dst.Run(seed, dst.RunOptions{Bug: o.bug, Flight: o.flight})
				if err != nil {
					r.err = err
					continue
				}
				r.flavor = res.Scenario.Flavor
				r.violations = res.Violations
				r.trace = res.Trace
				r.flight = res.Flight
				for _, v := range res.Violations {
					if strings.Contains(v, "duplicate") {
						r.dupCaught = true
					}
				}
			}
		}()
	}
	for seed := o.start; seed < o.start+o.seeds; seed++ {
		seeds <- seed
	}
	close(seeds)
	wg.Wait()

	flavors := map[string]int{}
	var failing []uint64
	dupSeeds := 0
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return 2, fmt.Errorf("seed %d: %w", r.seed, r.err)
		}
		flavors[r.flavor]++
		if r.dupCaught {
			dupSeeds++
		}
		if len(r.violations) > 0 {
			failing = append(failing, r.seed)
		}
	}

	var names []string
	for f := range flavors {
		names = append(names, f)
	}
	sort.Strings(names)
	var mix []string
	for _, f := range names {
		mix = append(mix, fmt.Sprintf("%s %d", f, flavors[f]))
	}
	fmt.Fprintf(out, "countsim: %d seeds [%d..%d], %d failing (%s)\n",
		o.seeds, o.start, o.start+o.seeds-1, len(failing), strings.Join(mix, ", "))

	for _, seed := range failing {
		if o.expectBug {
			break // the failures are the injected canary being caught, not news
		}
		r := &results[seed-o.start]
		fmt.Fprintf(out, "seed %d (%s): %d violations\n", seed, r.flavor, len(r.violations))
		for _, v := range r.violations {
			fmt.Fprintf(out, "  %s\n", v)
		}
		if o.artifacts != "" {
			path := filepath.Join(o.artifacts, fmt.Sprintf("seed-%d.trace", seed))
			if err := os.WriteFile(path, r.trace, 0o644); err != nil {
				return 2, err
			}
			fmt.Fprintf(out, "  trace: %s\n", path)
			if len(r.flight) > 0 {
				fpath := filepath.Join(o.artifacts, fmt.Sprintf("seed-%d.flight.json", seed))
				if err := os.WriteFile(fpath, r.flight, 0o644); err != nil {
					return 2, err
				}
				fmt.Fprintf(out, "  flight: %s\n", fpath)
			}
		}
		replayFlags := bugFlag(o.bug) + flightFlag(o.flight)
		if o.cluster {
			replayFlags = " -cluster"
		}
		fmt.Fprintf(out, "  replay: countsim -seed %d -trace%s\n", seed, replayFlags)
	}

	if o.expectBug {
		if dupSeeds == 0 {
			fmt.Fprintf(out, "countsim: injected duplicate-mint bug NEVER caught in %d seeds — the harness is blind\n", o.seeds)
			return 1, nil
		}
		fmt.Fprintf(out, "countsim: canary ok — duplicate mint caught in %d/%d seeds\n", dupSeeds, o.seeds)
		return 0, nil
	}
	if len(failing) > 0 {
		return 1, nil
	}
	fmt.Fprintln(out, "countsim: all invariants green")
	return 0, nil
}

func bugFlag(bug bool) string {
	if bug {
		return " -bug"
	}
	return ""
}

func flightFlag(flight bool) string {
	if flight {
		return " -flight"
	}
	return ""
}

// saveArtifact writes the trace (and, for traced runs, the flight
// recorder's black box) for a failing single-seed replay.
func saveArtifact(dir string, res *dst.Result) (string, error) {
	if dir == "" || !res.Failed() {
		return "", nil
	}
	path := filepath.Join(dir, fmt.Sprintf("seed-%d.trace", res.Seed))
	if err := os.WriteFile(path, res.Trace, 0o644); err != nil {
		return "", err
	}
	if len(res.Flight) > 0 {
		fpath := filepath.Join(dir, fmt.Sprintf("seed-%d.flight.json", res.Seed))
		if err := os.WriteFile(fpath, res.Flight, 0o644); err != nil {
			return "", err
		}
	}
	return path, nil
}
