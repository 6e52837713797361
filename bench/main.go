// Command bench is the repository's benchmark: four workloads, four
// end-to-end metrics each, and a separate traced run that reports every
// layer. BENCHMARK.json names it; README.md in this directory says what
// each number means and how to compare two commits with it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"sort"
	"time"
)

// Defaults of a gated run; BENCHMARK.json's run_seconds repeats the first.
const (
	defaultSeconds = 26
	setupReps      = 3 // set-ups per run; setup_s is their median
	legSeconds     = 5 // closed-loop and real-socket legs of the traced run
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	aa       int
	outDir   string
}

// metric is one reported value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the wire assignment and dedup-id streams")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer run instead of the gated one")
	flag.BoolVar(&o.smoke, "smoke", false, "0.2 s per workload, no warm-up floor: checks the harness, not the system")
	flag.IntVar(&o.aa, "aa", 0, "A/A self-check: two interleaved sets of N gated runs per workload")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for the traced run's Chrome traces")
	flag.Parse()
	if flag.NArg() != 0 || o.seconds < 0.1 || o.seconds > 60 || o.trace < 0 || o.trace > 1 || o.aa < 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name|all] [-seed n] [-seconds 0.1..60] [-trace 0|1] [-smoke] [-aa n]")
		os.Exit(2)
	}
	if o.smoke {
		o.seconds = 0.2
	}
	var ws []workloadDef
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(os.Stderr, "bench: no workload %q\n", o.workload)
		os.Exit(2)
	}
	stdruntime.GOMAXPROCS(gatedProcs)
	if o.aa > 0 {
		os.Exit(selfCheck(os.Stdout, ws, o))
	}
	code := 0
	for _, w := range ws {
		res, err := runWorkload(os.Stdout, w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct || res.Failed != 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// runWorkload runs one workload, gated or traced, prints every metric
// by name with its unit and returns the result line.
func runWorkload(out io.Writer, w workloadDef, o options) (result, error) {
	fmt.Fprintln(out, envStamp(o.seed))
	warm, dur := warmUp, time.Duration(o.seconds*float64(time.Second))
	if o.smoke {
		warm = 100 * time.Millisecond
	}
	if o.trace == 1 {
		return runTraced(out, w, o, warm, dur)
	}
	reps := setupReps
	if o.smoke {
		reps = 1
	}
	// Rehearsals: the same set-up and warm-up, torn down unmeasured, so
	// setup_s is a median and not one draw.
	var setups []float64
	for i := 1; i < reps; i++ {
		var l leg
		if err := w.run(params{seed: o.seed, warm: warm, root: -1}, &l); err != nil {
			return result{}, fmt.Errorf("set-up rehearsal: %w", err)
		}
		setups = append(setups, l.setupS)
	}
	var l leg
	if err := w.run(params{seed: o.seed, warm: warm, dur: dur, root: -1}, &l); err != nil {
		return result{}, err
	}
	setups = append(setups, l.setupS)
	vals := map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     l.opsPerS,
		"p50_us":        l.p50US(),
		"cpu_us_per_op": l.cpuPerOpUS(),
	}
	// The ungated companions of the run that was gated: tails, lateness
	// and steal belong beside the medians they qualify.
	extra := map[string]float64{}
	loadgenMetrics(extra, &l)
	for _, d := range perLayer {
		if v, ok := extra[d.name]; ok {
			fmt.Fprintf(out, "metric %s/%s %.6g %s\n", w.name, d.name, v, d.unit)
		}
	}
	return report(out, w, &l, vals, endToEnd), nil
}

// runTraced is the per-layer run: an untraced leg and a traced leg of
// half the time each, so their CPU per op gives the tracing overhead,
// then the layers' public functions timed alone.
func runTraced(out io.Writer, w workloadDef, o options, warm, dur time.Duration) (result, error) {
	var plain, traced leg
	if err := w.run(params{seed: o.seed, warm: warm, dur: dur / 2, root: -1}, &plain); err != nil {
		return result{}, fmt.Errorf("untraced leg: %w", err)
	}
	tr := &tracer{}
	start := time.Now().UnixNano()
	root := tr.add("workload "+w.name, -1, 0, start, start) // closed below
	if err := w.run(params{seed: o.seed, warm: warm, dur: dur / 2, traced: true, tr: tr, root: root}, &traced); err != nil {
		return result{}, fmt.Errorf("traced leg: %w", err)
	}
	vals := map[string]float64{}
	scale, legDur := 1.0, legSeconds*time.Second
	if o.smoke {
		scale, legDur = 0.01, 200*time.Millisecond
	}
	if err := microLegs(vals, scale); err != nil {
		return result{}, err
	}
	if w.extra != nil {
		if err := w.extra(vals, tr, root, legDur); err != nil {
			return result{}, err
		}
	}
	tr.close(root, time.Now().UnixNano())
	layerMetrics(vals, w, &plain, &traced)
	path := filepath.Join(o.outDir, "trace-"+w.name+".json")
	if err := tr.writeChrome(path, traced.cliSpans, traced.srvSpans); err != nil {
		return result{}, fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(out, "trace %s (%d harness, %d client, %d server spans)\n", path, len(tr.spans), len(traced.cliSpans), len(traced.srvSpans))
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "self %s/%q %.1f us\n", w.name, name, float64(self[name])/1e3)
	}
	traced.audit = append(traced.audit, plain.audit...)
	traced.attempted += plain.attempted
	traced.issued += plain.issued
	traced.failed += plain.failed
	return report(out, w, &traced, vals, perLayer), nil
}

// loadgenMetrics fills the load generator's own layer metrics from a leg.
func loadgenMetrics(out map[string]float64, l *leg) {
	lat := append([]float64(nil), l.latUS...)
	sort.Float64s(lat)
	tail := supportedTail(len(lat))
	out["loadgen.late_p50_us"] = median(l.lateUS)
	out["loadgen.due_p50_us"] = median(l.dueUS)
	out["loadgen.backlog_max"] = float64(l.backlog)
	out["loadgen.tail_us"] = percentile(lat, tail)
	out["loadgen.tail_pct"] = tail
	out["loadgen.samples"] = float64(len(lat))
	out["loadgen.failed"] = float64(l.failed)
	out["loadgen.steal_frac"] = l.steal
	if ops := l.attempted - l.failed; ops > 0 {
		out["loadgen.allocs_per_op"] = float64(l.mallocs) / float64(ops)
	}
}

// report prints defs' metrics and the audit's verdict and builds the
// result line.
func report(out io.Writer, w workloadDef, l *leg, vals map[string]float64, defs []metricDef) result {
	res := result{Correct: len(l.audit) == 0, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := vals[d.name] // 0 where this workload has no such layer
		res.Metrics[d.name] = metric{v, d.unit}
		fmt.Fprintf(out, "metric %s/%s %.6g %s\n", w.name, d.name, v, d.unit)
	}
	for _, v := range l.audit {
		fmt.Fprintf(out, "VIOLATION %s: %s\n", w.name, v)
	}
	fmt.Fprintf(out, "audit %s: correct=%v attempted=%d failed=%d issued=%d offered=%d/s\n",
		w.name, res.Correct, l.attempted, l.failed, l.issued, w.rate)
	return res
}
