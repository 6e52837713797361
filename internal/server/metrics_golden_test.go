package server

import (
	"flag"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current code")

// TestMetricsTextGolden pins countd's whole /metrics exposition — the
// collector's, the consistency monitor's, the server's and the cluster
// node's sections — byte for byte against testdata/metrics.golden, for
// fixed state in each. Every histogram family on the surface is in it:
// countingnet_inc_latency_seconds, countd_latency_{sc,lin}_seconds, the
// labelled countd_stage_seconds series and
// countd_cluster_lin_forward_seconds. The only wall-clock value,
// countingnet_uptime_seconds, is masked. Regenerate with -update.
func TestMetricsTextGolden(t *testing.T) {
	col := telemetry.NewCollectorShards(3, 2, 2, 1)
	for k := 0; k < 10; k++ {
		col.TokenEnter(k % 2)
		col.BalancerVisit(k%2, 0)
		col.BalancerVisit(k%2, 2)
		col.TokenExit(k%2, k%2, int64(k), time.Duration(100<<k)*time.Nanosecond)
	}
	mon := consistency.NewOnline()
	mon.Report(0, 5, 1, 2)
	mon.Report(0, 3, 3, 4)

	st := NewStats(1)
	st.connsTotal.Add(3)
	st.connsActive.Add(2)
	st.framesIn.Add(40)
	st.framesOut.Add(39)
	st.backpressure.Add(1)
	st.flushes.Add(17)
	st.bytesOut.Add(1234)
	st.udpDatagrams.Add(9)
	st.udpRejectReason(udpRejectReplay)
	st.observeUDPBatch(9)
	st.observeUDPSegs(4)
	st.observeQueue(12)
	for i := 0; i < 6; i++ {
		r := req{wire: i % 4, k: 1, mode: uint8(i % 2)}
		d := time.Duration(1500<<i) * time.Nanosecond
		st.recordSwept(r, 4*d, d, d/2, d/4)
	}
	st.sweeps.Add(4)
	st.sweepReqs.Add(6)
	st.sweepTokens.Add(6)
	st.stageRecord(stageFlush, 0, 70*time.Microsecond)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cst := cluster.NewStats()
	nd, err := cluster.Start(cluster.Config{
		NodeID:      3,
		Addr:        ln.Addr().String(),
		GossipEvery: time.Hour,
		Listen:      func(string) (net.Listener, error) { return ln, nil },
		Stats:       cst,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nd.Kill() })
	cst.GossipRounds.Add(11)
	cst.Grants.Add(2)
	cst.LinForwards.Add(5)
	cst.LinServed.Add(1)
	for i := 0; i < 5; i++ {
		cst.FwdLatency.Record(0, time.Duration(40<<i)*time.Microsecond)
	}

	srv := httptest.NewServer(telemetry.Handler(col, mon, st.AppendMetrics, nd.AppendMetrics))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body = regexp.MustCompile(`(?m)^countingnet_uptime_seconds .*$`).
		ReplaceAll(body, []byte("countingnet_uptime_seconds UPTIME"))

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Fatalf("/metrics differs from %s:\n--- got\n%s\n--- want\n%s", golden, body, want)
	}
}
