package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// regressionBound is the share of the parent's median by which any
// end-to-end metric may worsen; BENCHMARK.json repeats it per metric.
// The issue asked for 0.10. Measured here, the same binary's medians
// move 15–30 % within the hour as the host's other tenants come and go,
// and a set of ten runs spreads up to 13 %; the bound a metric gets is
// three times the spread it showed, and the contract caps that at 0.25.
const regressionBound = 0.25

// selfCheck is the A/A test: it runs this same binary 2·N times per
// workload, alternately into set A and set B, every run on its own
// seed, and holds the two sets against the benchmark's own bound. Two
// sets of the same code must agree to within half the bound and each
// set's quartile spread must stay inside it, or the benchmark could not
// tell a regression from its own noise.
func selfCheck(out io.Writer, ws []workloadDef, o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, envStamp(o.seed))
	fmt.Fprintf(out, "%-16s %-14s %12s %12s %7s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "")
	bad := 0
	for _, w := range ws {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*o.aa; i++ {
			res, err := runChild(exe, w.name, o.seed+int64(i), o.seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			fmt.Fprintf(out, "run %s set=%c seed=%d", w.name, 'A'+i%2, o.seed+int64(i))
			for _, d := range endToEnd {
				v := res.Metrics[d.name].Value
				sets[i%2][d.name] = append(sets[i%2][d.name], v)
				fmt.Fprintf(out, " %s=%.6g", d.name, v)
			}
			fmt.Fprintln(out)
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			diff := math.Abs(ma-mb) / math.Abs(ma)
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if diff > regressionBound/2 || sa > regressionBound || sb > regressionBound {
				verdict = "NOISY"
				bad++
			}
			fmt.Fprintf(out, "%-16s %-14s %12.6g %12.6g %6.2f%% %7.2f%% %7.2f%% %6s\n", w.name, d.name, ma, mb, 100*diff, 100*sa, 100*sb, verdict)
		}
	}
	if bad != 0 {
		fmt.Fprintf(out, "A/A: %d pairings outside the %.0f %% bound\n", bad, 100*regressionBound)
		return 1
	}
	fmt.Fprintf(out, "A/A: every pairing within the %.0f %% bound\n", 100*regressionBound)
	return 0
}

// runChild runs one gated run of this binary and parses its last line.
func runChild(exe, workload string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		os.Stderr.Write(outb) // the failed run's own account of why
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(outb), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("parse result line: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return res, fmt.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	return res, nil
}
