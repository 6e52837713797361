package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	countingnet "repro"
	"repro/internal/client"
	"repro/internal/packetio"
	"repro/internal/wire"
)

// syncBuffer lets the test read countd's streamed output while run is
// still writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var servingRe = regexp.MustCompile(`serving ([0-9.]+:\d+)`)
var telemRe = regexp.MustCompile(`telemetry http://([0-9.]+:\d+)/metrics`)
var flightRe = regexp.MustCompile(`flight recorder http://([0-9.]+:\d+)/debug/flight`)

// startDaemon runs the daemon in-process on ephemeral ports and waits for
// its service address to appear in the output.
func startDaemon(t *testing.T, o options) (*syncBuffer, string, context.CancelFunc, <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, o, out) }()
	t.Cleanup(cancel)

	return out, awaitAddr(t, out, done, servingRe), cancel, done
}

// awaitAddr polls countd's output for re's address. run prints one line
// per endpoint as each comes up, so a later endpoint's line can trail the
// serving line by a moment.
func awaitAddr(t *testing.T, out *syncBuffer, done <-chan error, re *regexp.Regexp) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		select {
		case err := <-done:
			t.Fatalf("countd exited before printing %q: %v\n%s", re, err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("countd never printed %q:\n%s", re, out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonEndToEnd boots countd in-process, drives it with a remote
// client, scrapes the telemetry endpoint, and checks the drain report.
func TestDaemonEndToEnd(t *testing.T) {
	out, addr, cancel, done := startDaemon(t, options{
		kind: "bitonic", width: 8,
		listen: "127.0.0.1:0", telem: "127.0.0.1:0", mode: "sc",
	})

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	seen := map[int64]bool{}
	for i := 0; i < 20; i++ {
		v := c.Inc(i)
		if v < 0 || seen[v] {
			t.Fatalf("op %d: value %v (negative or duplicate)", i, v)
		}
		seen[v] = true
	}
	c.Close()

	resp, err := http.Get("http://" + awaitAddr(t, out, done, telemRe) + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	metrics := string(body[:n])
	for _, want := range []string{"countd_sc_ops_total", "countingnet_tokens_total", "countd_sweeps_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if got := out.String(); !strings.Contains(got, "drained; issued 20") {
		t.Errorf("drain report missing issued count:\n%s", got)
	}
}

var udpRe = regexp.MustCompile(`udp endpoint ([0-9.]+:\d+)`)

// TestDaemonUDPEndpoint boots countd with the UDP endpoint tuned by the
// new flags (-udp-sockets, -udp-batch, -udp-portable), fires batched
// fire-and-forget increments at it — including one replayed dedup id —
// and checks the minted count and the per-reason reject metrics.
func TestDaemonUDPEndpoint(t *testing.T) {
	out, addr, cancel, done := startDaemon(t, options{
		kind: "bitonic", width: 4,
		listen: "127.0.0.1:0", udp: "127.0.0.1:0", telem: "127.0.0.1:0",
		mode: "sc", udpSocks: 2, udpBatch: 16,
	})
	conn, err := packetio.Dial(awaitAddr(t, out, done, udpRe), packetio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	b := packetio.NewBatch(16)
	var f wire.Frame
	enc := func(dst []byte) []byte {
		p, err := wire.AppendFrame(dst, &f)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for i := 0; i < 16; i++ {
		id := uint64(i + 1)
		if i == 15 {
			id = 1 // replayed dedup id: must burn, not mint
		}
		f = wire.Frame{Type: wire.TInc, ID: id, Wire: int64(i % 4)}
		b.AppendWith(enc)
	}
	if _, err := conn.WriteBatch(b); err != nil {
		t.Fatal(err)
	}

	// UDP is fire-and-forget: poll the TCP read until the unique
	// datagrams have minted.
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := c.Read(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if v >= 15 {
			if v > 15 {
				t.Fatalf("issued %d from 15 unique datagrams — a replay minted", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("issued %d, want 15 — datagrams not ingested", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Close()

	resp, err := http.Get("http://" + awaitAddr(t, out, done, telemRe) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	metrics := string(body[:n])
	for _, want := range []string{
		"countd_udp_datagrams_total 15",
		`countd_udp_reject_reason_total{reason="replay"} 1`,
		"countd_udp_batch_size_bucket",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
}

// TestDaemonUDPPortableLoop pins the portable fallback behind
// -udp-portable: a single classic ReadFrom loop serving the same
// protocol.
func TestDaemonUDPPortableLoop(t *testing.T) {
	out, addr, cancel, done := startDaemon(t, options{
		kind: "bitonic", width: 4,
		listen: "127.0.0.1:0", udp: "127.0.0.1:0",
		mode: "sc", udpPort: true,
	})
	conn, err := packetio.Dial(awaitAddr(t, out, done, udpRe), packetio.Options{Portable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var f wire.Frame
	b := packetio.NewBatch(8)
	for i := 0; i < 8; i++ {
		f = wire.Frame{Type: wire.TInc, ID: uint64(i + 1), Wire: 0}
		b.AppendWith(func(dst []byte) []byte {
			p, err := wire.AppendFrame(dst, &f)
			if err != nil {
				t.Fatal(err)
			}
			return p
		})
		if _, err := conn.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
		b.Reset()
	}
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := c.Read(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if v == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("issued %d, want 8", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
}

// TestDaemonForceLIN checks -mode lin serves even SC-requested
// increments as LIN: the drain report must count them as LIN ops.
func TestDaemonForceLIN(t *testing.T) {
	out, addr, cancel, done := startDaemon(t, options{
		kind: "bitonic", width: 4, listen: "127.0.0.1:0", mode: "lin",
	})
	c, err := client.Dial(addr, client.Options{Mode: wire.ModeSC})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if v := c.Inc(0); v != int64(i) {
			t.Fatalf("LIN-forced Inc %d = %d, want sequential", i, v)
		}
	}
	c.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := out.String(); !strings.Contains(got, "lin 10") || !strings.Contains(got, "sc 0,") {
		t.Errorf("forced-LIN daemon should report 10 lin ops, 0 sc:\n%s", got)
	}
}

// TestDaemonFlightEndpoint boots countd with server-side trace sampling
// and the black-box dump file, drives untraced increments, and checks the
// /debug/flight endpoint serves recorded spans and the exit dump lands on
// disk as valid JSON.
func TestDaemonFlightEndpoint(t *testing.T) {
	flOut := filepath.Join(t.TempDir(), "flight.json")
	out, addr, cancel, done := startDaemon(t, options{
		kind: "bitonic", width: 4,
		listen: "127.0.0.1:0", telem: "127.0.0.1:0", mode: "sc",
		sample: 2, flOut: flOut,
	})

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		c.Inc(i % 4)
	}
	c.Close()

	resp, err := http.Get("http://" + awaitAddr(t, out, done, flightRe) + "/debug/flight")
	if err != nil {
		t.Fatalf("GET /debug/flight: %v", err)
	}
	var dump countingnet.FlightDump
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/flight is not valid JSON: %v", err)
	}
	if dump.Recorded == 0 || len(dump.Spans) == 0 {
		t.Errorf("sampling 1 in 2 over 40 increments recorded no spans: recorded=%d spans=%d",
			dump.Recorded, len(dump.Spans))
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	b, err := os.ReadFile(flOut)
	if err != nil {
		t.Fatalf("exit dump missing: %v", err)
	}
	var exitDump countingnet.FlightDump
	if err := json.Unmarshal(b, &exitDump); err != nil {
		t.Fatalf("-flight-out artifact is not valid JSON: %v", err)
	}
	if exitDump.Recorded == 0 {
		t.Error("-flight-out exit dump recorded no spans")
	}
	if len(exitDump.Stats) == 0 {
		t.Error("-flight-out exit dump carries no server stats snapshot")
	}
}

func TestDaemonDuration(t *testing.T) {
	out := &syncBuffer{}
	err := run(context.Background(), options{
		kind: "tree", width: 4, listen: "127.0.0.1:0", mode: "sc",
		duration: 100 * time.Millisecond,
	}, out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("no drain report after -duration elapsed:\n%s", out.String())
	}
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	for _, o := range []options{
		{kind: "moebius", width: 4, listen: "127.0.0.1:0", mode: "sc"},
		{kind: "bitonic", width: 4, listen: "127.0.0.1:0", mode: "eventually"},
		{kind: "bitonic", width: 3, listen: "127.0.0.1:0", mode: "sc"},
	} {
		if err := run(context.Background(), o, &syncBuffer{}); err == nil {
			t.Errorf("run(%+v) accepted bad configuration", o)
		}
	}
}
