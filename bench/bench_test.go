package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flightrec"
)

func TestPercentile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {-1, 10}, {101, 50},
	} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The highest percentile reported must leave at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99},
		{10000, 99.9}, {100000, 99.99}, {1000000, 99.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), the
// driver's estimator. Expected values computed with Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{5, 1, 9, 3, 7})
	if q1 != 2 || q2 != 5 || q3 != 8 {
		t.Errorf("quartiles(1,3,5,7,9) = %v %v %v, want 2 5 8", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// The program under test sees only the generated calls, so the seed
// must fix them: same seed, same schedule and id stream; another seed,
// another one.
func TestScheduleAndIDsFollowSeed(t *testing.T) {
	mk := func(seed int64) schedule {
		return schedule{perTick: scRate / ticksPerSec, warmTicks: 10, table: wireTable(seed)}
	}
	a, b, c := mk(7), mk(7), mk(8)
	same, differ := true, false
	for n := int64(0); n < 5000; n++ {
		ja, jb, jc := a.job(n), b.job(n), c.job(n)
		same = same && ja == jb
		differ = differ || ja.wire != jc.wire
		if want := n / 100 * int64(tick); ja.due != want {
			t.Fatalf("job %d due %d, want %d", n, ja.due, want)
		}
		if ja.wire < 0 || ja.wire >= width {
			t.Fatalf("job %d on wire %d", n, ja.wire)
		}
		if want := n >= 1000 && n%sampleEvery == 0; ja.sampled != want {
			t.Fatalf("job %d sampled=%v, want %v", n, ja.sampled, want)
		}
	}
	if !same {
		t.Error("the same seed gave two schedules")
	}
	if !differ {
		t.Error("two seeds gave the same wire assignment")
	}
	seen := map[uint64]bool{}
	for n := uint64(0); n < 5000; n++ {
		id := dedupID(idMask-100, n) // wraps inside the band
		if id < idBand || id >= 2*idBand {
			t.Fatalf("id %d of the stream is %#x, outside the band", n, id)
		}
		if seen[id] {
			t.Fatalf("id %#x repeats", id)
		}
		seen[id] = true
	}
}

func TestIDSet(t *testing.T) {
	s := newIDSet(128)
	for _, id := range []int64{0, 5, 63, 64, 127} {
		if !s.mark(id) {
			t.Errorf("fresh id %d refused", id)
		}
	}
	if n, end := s.count(); n != 5 || end != 128 {
		t.Errorf("count = %d, %d, want 5, 128", n, end)
	}
	if err := s.check(128); err != nil {
		t.Errorf("clean set: %v", err)
	}
	if err := s.check(127); err == nil {
		t.Error("id 127 with 127 issued passed the audit")
	}
	if s.mark(5) {
		t.Error("duplicate id 5 accepted")
	}
	if err := s.check(128); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate not reported: %v", err)
	}
	o := newIDSet(64)
	if o.mark(-1) || o.mark(64) {
		t.Error("out-of-range id accepted")
	}
	if err := o.check(64); err == nil {
		t.Error("out-of-range ids passed the audit")
	}
}

func TestParseProcStat(t *testing.T) {
	const a = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\nintr 1 2 3\n"
	const b = "cpu  150 0 70 1100 10 0 5 65 7 0\n"
	ta, err := parseProcStat(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if ta.steal != 35 || ta.total != 1000 {
		t.Errorf("parsed steal %d total %d, want 35 1000", ta.steal, ta.total)
	}
	tb, err := parseProcStat(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if got := stealFrac(ta, tb); math.Abs(got-30.0/400) > 1e-12 {
		t.Errorf("stealFrac = %v, want 0.075", got)
	}
	if _, err := parseProcStat(strings.NewReader("cpu0 1 2 3 4 5 6 7 8\n")); err == nil {
		t.Error("a file without the aggregate line parsed")
	}
	if _, err := parseProcStat(strings.NewReader("cpu  1 2 x 4 5 6 7 8\n")); err == nil {
		t.Error("a non-numeric field parsed")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	root := tr.add("leg", -1, 0, 0, 1000)
	tr.add("build", root, 0, 0, 300)
	tr.add("call", root, 1, 400, 500)
	tr.add("call", root, 2, 450, 600)
	self := tr.selfTimes()
	if self["leg"] != 1000-300-100-150 || self["build"] != 300 || self["call"] != 250 {
		t.Errorf("self times %v", self)
	}
	var off *tracer
	if id := off.add("x", -1, 0, 0, 1); id != -1 || len(off.selfTimes()) != 0 {
		t.Error("a nil tracer recorded something")
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// The smoke pass runs every workload for 0.2 s, gated and traced, and
// holds the names it prints one-for-one against BENCHMARK.json. It
// asserts nothing about timing.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the command defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q here, or their reasons differ", i, bf.Workloads[i].Name, w.name)
		}
	}
	want := map[int][]metricDef{0: endToEnd, 1: perLayer}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the command reports %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := bf.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != regressionBound {
			t.Errorf("end_to_end[%d] = %+v, want %+v bound %v", i, m, d, regressionBound)
		}
	}
	for i, d := range perLayer {
		if m := bf.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, d)
		}
	}
	out := t.TempDir()
	for _, w := range workloads {
		for trace, defs := range want {
			res, err := runWorkload(io.Discard, w, options{seed: 5, trace: trace, smoke: true, seconds: 0.2, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics reported, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s missing or in unit %q", w.name, trace, d.name, m.Unit)
				}
			}
		}
		f, err := os.Open(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		evs, err := flightrec.ReadChrome(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: merged trace unreadable: %v", w.name, err)
		}
		harness := 0
		for _, ev := range evs {
			if ev.Part == "harness" {
				harness++
			}
		}
		if harness == 0 {
			t.Errorf("%s: merged trace holds no harness span", w.name)
		}
	}
}
