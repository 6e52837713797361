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
// and add routes beside it.
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
		fmt.Fprint(w, "countingnet telemetry\n\n/metrics\n/debug/countingnet\n/debug/pprof/\n")
	})
	return mux
}

// debugSnapshot is the /debug/countingnet JSON body.
type debugSnapshot struct {
	Telemetry   *Snapshot              `json:"telemetry,omitempty"`
	Consistency *consistency.Fractions `json:"consistency,omitempty"`
}

// writeMetrics renders a Snapshot in the Prometheus text format.
func writeMetrics(b *strings.Builder, s Snapshot) {
	fmt.Fprintf(b, "# HELP countingnet_uptime_seconds Seconds since the collector attached.\n")
	fmt.Fprintf(b, "# TYPE countingnet_uptime_seconds gauge\n")
	fmt.Fprintf(b, "countingnet_uptime_seconds %g\n", s.UptimeNS.Seconds())

	fmt.Fprintf(b, "# HELP countingnet_tokens_total Tokens that completed a traversal.\n")
	fmt.Fprintf(b, "# TYPE countingnet_tokens_total counter\n")
	fmt.Fprintf(b, "countingnet_tokens_total %d\n", s.Tokens)

	fmt.Fprintf(b, "# HELP countingnet_balancer_toggles_total Tokens that toggled each balancer.\n")
	fmt.Fprintf(b, "# TYPE countingnet_balancer_toggles_total counter\n")
	for i, v := range s.Toggles {
		fmt.Fprintf(b, "countingnet_balancer_toggles_total{balancer=\"%d\"} %d\n", i, v)
	}

	fmt.Fprintf(b, "# HELP countingnet_cas_retries_total Failed CAS attempts per balancer (IncCAS ablation).\n")
	fmt.Fprintf(b, "# TYPE countingnet_cas_retries_total counter\n")
	for i, v := range s.CASRetries {
		fmt.Fprintf(b, "countingnet_cas_retries_total{balancer=\"%d\"} %d\n", i, v)
	}

	fmt.Fprintf(b, "# HELP countingnet_wire_tokens_total Tokens entered per input wire.\n")
	fmt.Fprintf(b, "# TYPE countingnet_wire_tokens_total counter\n")
	for i, v := range s.WireTokens {
		fmt.Fprintf(b, "countingnet_wire_tokens_total{wire=\"%d\"} %d\n", i, v)
	}

	fmt.Fprintf(b, "# HELP countingnet_sink_tokens_total Tokens exited per output counter.\n")
	fmt.Fprintf(b, "# TYPE countingnet_sink_tokens_total counter\n")
	for i, v := range s.SinkTokens {
		fmt.Fprintf(b, "countingnet_sink_tokens_total{sink=\"%d\"} %d\n", i, v)
	}

	fmt.Fprintf(b, "# HELP countingnet_inc_latency_seconds Inc latency histogram.\n")
	fmt.Fprintf(b, "# TYPE countingnet_inc_latency_seconds histogram\n")
	WriteHistogram(b, "countingnet_inc_latency_seconds", "", s.Latency)

	fmt.Fprintf(b, "# HELP countingnet_inc_latency_quantile_seconds Inc latency quantile estimates.\n")
	fmt.Fprintf(b, "# TYPE countingnet_inc_latency_quantile_seconds gauge\n")
	for _, q := range []struct {
		label string
		v     float64
	}{
		{"0.5", s.Latency.P50.Seconds()},
		{"0.95", s.Latency.P95.Seconds()},
		{"0.99", s.Latency.P99.Seconds()},
		{"1", s.Latency.Max.Seconds()},
	} {
		fmt.Fprintf(b, "countingnet_inc_latency_quantile_seconds{quantile=\"%s\"} %g\n", q.label, q.v)
	}
}

// WriteHistogram writes one latency summary as a series of the
// Prometheus histogram family name (e.g. "countd_latency_sc_seconds"):
// cumulative buckets with their bounds in seconds, +Inf, sum and count.
// labels, when not empty, is the series' label list without braces
// (`stage="sweep",mode="sc"`). The caller writes the family's HELP and
// TYPE lines, once per family.
func WriteHistogram(w io.Writer, name, labels string, ls LatencySummary) {
	le, sel := "", ""
	if labels != "" {
		le, sel = labels+",", "{"+labels+"}"
	}
	var cum uint64
	for i, c := range ls.Buckets {
		cum += c
		if bound := ls.Bounds[i]; bound >= 0 {
			fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, le, float64(bound)/1e9, cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, ls.Count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, sel, ls.Sum.Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, sel, ls.Count)
}

// writeConsistencyMetrics renders live inconsistency fractions.
func writeConsistencyMetrics(b *strings.Builder, f consistency.Fractions) {
	fmt.Fprintf(b, "# HELP countingnet_ops_total Operations audited by the online monitor.\n")
	fmt.Fprintf(b, "# TYPE countingnet_ops_total counter\n")
	fmt.Fprintf(b, "countingnet_ops_total %d\n", f.Total)
	fmt.Fprintf(b, "# HELP countingnet_nonlinearizable_total Operations flagged non-linearizable.\n")
	fmt.Fprintf(b, "# TYPE countingnet_nonlinearizable_total counter\n")
	fmt.Fprintf(b, "countingnet_nonlinearizable_total %d\n", f.NonLin)
	fmt.Fprintf(b, "# HELP countingnet_nonsc_total Operations flagged non-sequentially-consistent.\n")
	fmt.Fprintf(b, "# TYPE countingnet_nonsc_total counter\n")
	fmt.Fprintf(b, "countingnet_nonsc_total %d\n", f.NonSC)
	fmt.Fprintf(b, "# HELP countingnet_nonlin_fraction Live F_nl.\n")
	fmt.Fprintf(b, "# TYPE countingnet_nonlin_fraction gauge\n")
	fmt.Fprintf(b, "countingnet_nonlin_fraction %g\n", f.NonLinFraction())
	fmt.Fprintf(b, "# HELP countingnet_nonsc_fraction Live F_nsc.\n")
	fmt.Fprintf(b, "# TYPE countingnet_nonsc_fraction gauge\n")
	fmt.Fprintf(b, "countingnet_nonsc_fraction %g\n", f.NonSCFraction())
}
