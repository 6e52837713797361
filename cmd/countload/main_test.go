package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	countingnet "repro"
	"repro/internal/server"
)

// startService serves B(width) on loopback for the duration of the test.
func startService(t *testing.T, width int) string {
	t.Helper()
	rt := countingnet.MustCompile(countingnet.MustBitonic(width))
	srv := server.New(rt, server.Options{Stats: server.NewStats(0)})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

// startUDPService serves B(width) on loopback with both the TCP and UDP
// endpoints up, returning both addresses.
func startUDPService(t *testing.T, width int) (tcp, udp string) {
	t.Helper()
	rt := countingnet.MustCompile(countingnet.MustBitonic(width))
	srv := server.New(rt, server.Options{Stats: server.NewStats(0)})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ua, err := srv.ListenPacket("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String(), ua.String()
}

// TestLoadUDPRun drives the open-loop UDP mode against a live service:
// datagrams must flow, the issued-count audit must reconcile (minted
// never exceeds sent).
func TestLoadUDPRun(t *testing.T) {
	tcp, udp := startUDPService(t, 4)
	var out strings.Builder
	err := run(context.Background(), options{
		addr: tcp, udp: udp, clients: 2, mode: "sc",
		udpBatch: 16, udpWires: 4,
		duration: 200 * time.Millisecond,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"udp", "datagrams ", "minted "} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

// TestLoadUDPRejectsLIN pins the mode gate: the UDP endpoint is SC-only.
func TestLoadUDPRejectsLIN(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), options{
		addr: "127.0.0.1:1", udp: "127.0.0.1:1", clients: 1, mode: "lin",
		udpBatch: 8, udpWires: 1, duration: 50 * time.Millisecond,
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "SC increments only") {
		t.Fatalf("want SC-only error, got %v", err)
	}
}

func TestLoadRun(t *testing.T) {
	addr := startService(t, 8)
	var out strings.Builder
	err := run(context.Background(), options{
		addr: addr, clients: 4, window: 16, mode: "sc",
		duration: 300 * time.Millisecond,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"ops ", "ops/s", "duplicates 0", "latency p50"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	// 16 SC workers per client share one combiner, so the wire line must
	// show fewer frames than ops.
	m := regexp.MustCompile(`wire: .*, ([0-9.]+) frames/op\)`).FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("report has no frames/op on its wire line:\n%s", got)
	}
	if f, err := strconv.ParseFloat(m[1], 64); err != nil || f >= 1 {
		t.Errorf("SC run sent %s frames/op, want < 1:\n%s", m[1], got)
	}
}

// startTracedService serves B(width) on loopback with a flight recorder
// attached, plus an HTTP endpoint exposing its black box at /debug/flight
// the way countd's telemetry surface does.
func startTracedService(t *testing.T, width int) (addr, telem string) {
	t.Helper()
	rec := countingnet.NewFlightRecorder(1 << 14)
	rt := countingnet.MustCompile(countingnet.MustBitonic(width))
	srv := server.New(rt, server.Options{Stats: server.NewStats(0), Flight: rec})
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/flight" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = rec.WriteDump(w, nil)
	}))
	t.Cleanup(ts.Close)
	return a.String(), ts.URL
}

// TestLoadTraceExport runs a sampled load against a traced service and
// checks the merged Chrome timeline: both the client and server parts are
// present, and at least one trace id appears on both sides — the property
// that lets the viewer line up a request's journey end to end.
func TestLoadTraceExport(t *testing.T) {
	addr, telem := startTracedService(t, 8)
	path := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	err := run(context.Background(), options{
		addr: addr, clients: 2, window: 8, mode: "sc",
		duration: 300 * time.Millisecond,
		sample:   8, traceOut: path, traceSrc: telem,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "span events -> "+path) {
		t.Errorf("report missing trace line:\n%s", out.String())
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := countingnet.ReadFlightChrome(f)
	if err != nil {
		t.Fatalf("parse exported timeline: %v", err)
	}
	traces := map[string]map[string]bool{} // part -> trace ids seen
	for _, ev := range evs {
		if ev.End < ev.Start {
			t.Errorf("span %s/%s trace %s ends before it starts (%d < %d)",
				ev.Part, ev.Stage, ev.Trace, ev.End, ev.Start)
		}
		if traces[ev.Part] == nil {
			traces[ev.Part] = map[string]bool{}
		}
		traces[ev.Part][ev.Trace] = true
	}
	for _, part := range []string{"countload", "countd"} {
		if len(traces[part]) == 0 {
			t.Errorf("merged timeline has no spans for part %q (parts: %v)", part, traces)
		}
	}
	shared := false
	for id := range traces["countload"] {
		if traces["countd"][id] {
			shared = true
			break
		}
	}
	if !shared {
		t.Error("no trace id appears in both the client and server parts — the merge is vacuous")
	}
}

// TestLoadTraceOutRequiresSample pins that an unusable trace-flag
// combination is refused as a usage error before anything is dialed: the
// address is a closed port and the duration a minute, so reaching the
// load loop would report "no operation completed" instead.
func TestLoadTraceOutRequiresSample(t *testing.T) {
	for _, tc := range []struct {
		o    options
		want string
	}{
		{options{traceOut: filepath.Join(t.TempDir(), "trace.json")}, "-trace-out requires -trace-sample"},
		{options{sample: 8, traceSrc: "http://127.0.0.1:1"}, "-trace-from requires -trace-out"},
	} {
		o := tc.o
		o.addr, o.clients, o.window, o.mode, o.duration = "127.0.0.1:1", 1, 4, "sc", time.Minute
		err := run(context.Background(), o, &strings.Builder{})
		if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want usage error %q, got %v", tc.want, err)
		}
	}
}

func TestLoadFailsWithoutService(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), options{
		addr: "127.0.0.1:1", clients: 1, window: 4, mode: "sc",
		duration: 100 * time.Millisecond,
	}, &out)
	if err == nil {
		t.Fatal("run succeeded against a dead address")
	}
}

func TestLoadRejectsBadMode(t *testing.T) {
	err := run(context.Background(), options{addr: "x", clients: 1, mode: "quantum"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Fatalf("want bad-mode error, got %v", err)
	}
}
