package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/consistency"
)

// Handler serves the observability surface for one instrumented network:
//
//	/metrics             Prometheus text exposition (counters, histogram,
//	                     quantile gauges, live consistency fractions)
//	/debug/countingnet   JSON snapshot (Collector + consistency fractions)
//	/debug/pprof/...     the standard pprof handlers
//
// Either argument may be nil; the corresponding sections are omitted. The
// handler is a plain ServeMux, so callers can mount it under their own mux
// and add routes beside it (countd adds /debug/flight and /heatmap). So
// its index at / names the surface and lists no routes: any list it held
// would miss the caller's.
//
// extras are appended to the /metrics exposition after the built-in
// sections; each is called per scrape with the response writer. The
// serving layer uses this to publish its countd_* metrics (pass
// server.Stats.AppendMetrics) without the telemetry package knowing
// about it.
func Handler(c *Collector, mon *consistency.Online, extras ...func(io.Writer)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		if c != nil {
			writeMetrics(&b, c.Snapshot())
		}
		if mon != nil {
			writeConsistencyMetrics(&b, mon.Fractions())
		}
		for _, extra := range extras {
			if extra != nil {
				extra(&b)
			}
		}
		_, _ = w.Write([]byte(b.String()))
	})
	mux.HandleFunc("/debug/countingnet", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var body debugSnapshot
		if c != nil {
			s := c.Snapshot()
			body.Telemetry = &s
		}
		if mon != nil {
			f := mon.Fractions()
			body.Consistency = &f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(body)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "countingnet telemetry\n")
	})
	return mux
}

// debugSnapshot is the /debug/countingnet JSON body.
type debugSnapshot struct {
	Telemetry   *Snapshot              `json:"telemetry,omitempty"`
	Consistency *consistency.Fractions `json:"consistency,omitempty"`
}

// writeMetrics renders a Snapshot in the Prometheus text format.
func writeMetrics(w io.Writer, s Snapshot) {
	WriteFamily(w, "countingnet_uptime_seconds", "gauge", "Seconds since the collector attached.")
	WriteSample(w, "countingnet_uptime_seconds", "", s.UptimeNS.Seconds())
	WriteFamily(w, "countingnet_tokens_total", "counter", "Tokens that completed a traversal.")
	WriteSample(w, "countingnet_tokens_total", "", s.Tokens)
	for _, f := range []struct {
		name, help, label string
		vs                []uint64
	}{
		{"countingnet_balancer_toggles_total", "Tokens that toggled each balancer.", "balancer", s.Toggles},
		{"countingnet_cas_retries_total", "Failed CAS attempts per balancer (IncCAS ablation).", "balancer", s.CASRetries},
		{"countingnet_wire_tokens_total", "Tokens entered per input wire.", "wire", s.WireTokens},
		{"countingnet_sink_tokens_total", "Tokens exited per output counter.", "sink", s.SinkTokens},
	} {
		WriteFamily(w, f.name, "counter", f.help)
		for i, v := range f.vs {
			WriteSample(w, f.name, fmt.Sprintf("%s=\"%d\"", f.label, i), v)
		}
	}
	WriteFamily(w, "countingnet_inc_latency_seconds", "histogram", "Inc latency histogram.")
	WriteHistogram(w, "countingnet_inc_latency_seconds", "", s.Latency)
	const q = "countingnet_inc_latency_quantile_seconds"
	WriteFamily(w, q, "gauge", "Inc latency quantile estimates.")
	WriteSample(w, q, `quantile="0.5"`, s.Latency.P50.Seconds())
	WriteSample(w, q, `quantile="0.95"`, s.Latency.P95.Seconds())
	WriteSample(w, q, `quantile="0.99"`, s.Latency.P99.Seconds())
	WriteSample(w, q, `quantile="1"`, s.Latency.Max.Seconds())
}

// writeConsistencyMetrics renders live inconsistency fractions.
func writeConsistencyMetrics(w io.Writer, f consistency.Fractions) {
	WriteFamily(w, "countingnet_ops_total", "counter", "Operations audited by the online monitor.")
	WriteSample(w, "countingnet_ops_total", "", f.Total)
	WriteFamily(w, "countingnet_nonlinearizable_total", "counter", "Operations flagged non-linearizable.")
	WriteSample(w, "countingnet_nonlinearizable_total", "", f.NonLin)
	WriteFamily(w, "countingnet_nonsc_total", "counter", "Operations flagged non-sequentially-consistent.")
	WriteSample(w, "countingnet_nonsc_total", "", f.NonSC)
	WriteFamily(w, "countingnet_nonlin_fraction", "gauge", "Live F_nl.")
	WriteSample(w, "countingnet_nonlin_fraction", "", f.NonLinFraction())
	WriteFamily(w, "countingnet_nonsc_fraction", "gauge", "Live F_nsc.")
	WriteSample(w, "countingnet_nonsc_fraction", "", f.NonSCFraction())
}

// WriteFamily writes a Prometheus family's HELP and TYPE lines, once per
// family, before its samples; typ is "counter", "gauge" or "histogram".
func WriteFamily(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteSample writes one sample line of the series name (a family name,
// or a histogram's name_bucket, name_sum or name_count). labels, when not
// empty, is the series' label list without braces (`reason="replay"`).
// Integers print in full, floats in %g.
func WriteSample[V int | int64 | uint64 | float64](w io.Writer, name, labels string, v V) {
	if labels != "" {
		fmt.Fprintf(w, "%s{%s} %v\n", name, labels, v)
		return
	}
	fmt.Fprintf(w, "%s %v\n", name, v)
}

// WriteHistogram writes one latency summary as a series of the
// Prometheus histogram family name (e.g. "countd_latency_sc_seconds"):
// cumulative buckets with their bounds in seconds, +Inf, sum and count.
// labels, when not empty, is the series' label list without braces
// (`stage="sweep",mode="sc"`). The caller writes the family's HELP and
// TYPE lines (WriteFamily), once per family.
func WriteHistogram(w io.Writer, name, labels string, ls LatencySummary) {
	le := ""
	if labels != "" {
		le = labels + ","
	}
	var cum uint64
	for i, c := range ls.Buckets {
		cum += c
		if bound := ls.Bounds[i]; bound >= 0 {
			WriteSample(w, name+"_bucket", fmt.Sprintf("%sle=\"%g\"", le, float64(bound)/1e9), cum)
		}
	}
	WriteSample(w, name+"_bucket", le+`le="+Inf"`, ls.Count)
	WriteSample(w, name+"_sum", labels, ls.Sum.Seconds())
	WriteSample(w, name+"_count", labels, ls.Count)
}
