package client

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestEndToEndMergedTimeline: one sampled SC increment and one sampled
// LIN increment, client and server each recording their own stages, merge
// onto a single Chrome timeline where both sides' events share the trace
// id — the tentpole's acceptance path, socket to socket.
func TestEndToEndMergedTimeline(t *testing.T) {
	frS := flightrec.New(1024)
	frC := flightrec.New(1024)
	_, addr := startService(t, 4, server.Options{Stats: server.NewStats(0), Flight: frS})
	c := dialC(t, addr, Options{Flight: frC, TraceSample: 1, TraceActor: 7})

	if v := c.Inc(1); v < 0 {
		t.Fatalf("SC inc failed: %d", v)
	}
	if _, err := c.IncMode(context.Background(), 2, wire.ModeLIN); err != nil {
		t.Fatal(err)
	}

	// Client spans complete with the calls; the server's flush spans land
	// once its writer flushes the replies.
	var sspans []flightrec.Span
	deadline := time.Now().Add(2 * time.Second)
	for {
		sspans = frS.Snapshot()
		flushes := 0
		for _, sp := range sspans {
			if sp.Stage == flightrec.StageServerFlush {
				flushes++
			}
		}
		if flushes >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server flush spans missing: %+v", sspans)
		}
		time.Sleep(time.Millisecond)
	}
	cspans := frC.Snapshot()
	if len(cspans) == 0 {
		t.Fatal("client recorded no spans")
	}

	// Every client trace must be in actor 7's namespace and have a
	// matching server-side trail.
	onServer := map[uint64]bool{}
	for _, sp := range sspans {
		onServer[sp.Trace] = true
	}
	traces := map[uint64]map[flightrec.Stage]bool{}
	for _, sp := range cspans {
		if sp.Trace>>40 != 7 {
			t.Fatalf("client span outside actor 7's namespace: %+v", sp)
		}
		if !onServer[sp.Trace] {
			t.Fatalf("client trace %#x has no server-side spans", sp.Trace)
		}
		if traces[sp.Trace] == nil {
			traces[sp.Trace] = map[flightrec.Stage]bool{}
		}
		traces[sp.Trace][sp.Stage] = true
	}
	sawSC := false
	for _, stages := range traces {
		if stages[flightrec.StageClientCombine] {
			sawSC = true
			if !stages[flightrec.StageClientRPC] || !stages[flightrec.StageClientComplete] {
				t.Fatalf("SC client trail incomplete: %v", stages)
			}
		}
	}
	if !sawSC {
		t.Fatalf("no SC combine span recorded: %+v", cspans)
	}

	// Merge and re-read: both parts present, ids consistent across them.
	var buf bytes.Buffer
	if err := flightrec.WriteChrome(&buf,
		flightrec.Part{Name: "client", Spans: cspans},
		flightrec.Part{Name: "countd", Spans: sspans},
	); err != nil {
		t.Fatal(err)
	}
	evs, err := flightrec.ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byPart := map[string]map[string]bool{}
	for _, ev := range evs {
		if byPart[ev.Part] == nil {
			byPart[ev.Part] = map[string]bool{}
		}
		byPart[ev.Part][ev.Trace] = true
	}
	if len(byPart["client"]) == 0 || len(byPart["countd"]) == 0 {
		t.Fatalf("merged timeline missing a part: %v", byPart)
	}
	for id := range byPart["client"] {
		if !byPart["countd"][id] {
			t.Fatalf("trace %s present on the client part only", id)
		}
	}
}

// TestTraceRetryKeepsID: a retried request re-issues under the same
// trace id (one logical request, one trace), pinned through the
// backpressure retry path.
func TestTraceRetryKeepsID(t *testing.T) {
	frC := flightrec.New(256)
	// A one-slot mailbox in front of a slow backend sheds most of 64
	// pipelined requests, so retries are certain. IncBatchCtx never
	// combines: each call is one logical request with a trace of its own.
	s := server.New(&slowBackend{delay: time.Millisecond}, server.Options{Mailbox: 1})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialC(t, addr.String(), Options{Flight: frC, TraceSample: 1, TraceActor: 3, Retries: 20})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.IncBatchCtx(context.Background(), i, 1, wire.ModeLIN); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if c.Stats().Retries == 0 {
		t.Fatal("no request was retried; the retry path went unexercised")
	}
	spans := frC.Snapshot()
	perTrace := map[uint64]int{}
	for _, sp := range spans {
		if sp.Stage == flightrec.StageClientRPC {
			perTrace[sp.Trace]++
		}
	}
	if len(perTrace) != 64 {
		t.Fatalf("expected 64 sampled requests, got %d", len(perTrace))
	}
	for id, n := range perTrace {
		if n != 1 {
			t.Fatalf("trace %#x has %d RPC spans (client records once per logical request)", id, n)
		}
	}
}

// TestSamplingRate: TraceSample N samples one in N increments.
func TestSamplingRate(t *testing.T) {
	frC := flightrec.New(1024)
	_, addr := startService(t, 4, server.Options{})
	c := dialC(t, addr, Options{Flight: frC, TraceSample: 4})
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := c.IncMode(context.Background(), 0, wire.ModeLIN); err != nil {
			t.Fatal(err)
		}
	}
	ids := map[uint64]bool{}
	for _, sp := range frC.Snapshot() {
		ids[sp.Trace] = true
	}
	if len(ids) != n/4 {
		t.Fatalf("sampled %d of %d requests, want %d", len(ids), n, n/4)
	}
}

// TestTracingOffNoSpans: the default client configuration records
// nothing and sends untraced (backward-compatible) frames.
func TestTracingOffNoSpans(t *testing.T) {
	frS := flightrec.New(64)
	_, addr := startService(t, 4, server.Options{Flight: frS})
	c := dialC(t, addr, Options{})
	for i := 0; i < 8; i++ {
		if v := c.Inc(i); v < 0 {
			t.Fatalf("inc %d failed", i)
		}
	}
	if got := frS.Snapshot(); len(got) != 0 {
		t.Fatalf("untraced traffic left spans on the server: %+v", got)
	}
	if c.Flight() != nil {
		t.Fatal("Flight() non-nil with tracing off")
	}
}
