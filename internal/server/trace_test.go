package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/wire"
)

// spansFor filters a snapshot down to one trace id.
func spansFor(spans []flightrec.Span, trace uint64) []flightrec.Span {
	var out []flightrec.Span
	for _, s := range spans {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// stageSet maps which stages a span set covers.
func stageSet(spans []flightrec.Span) map[flightrec.Stage]bool {
	m := map[flightrec.Stage]bool{}
	for _, s := range spans {
		m[s.Stage] = true
	}
	return m
}

// TestTracedRequestStages: a traced SC batch and a traced LIN increment
// each leave their full server-side stage trail in the flight recorder,
// with the trace id echoed on the reply and every span well-formed.
func TestTracedRequestStages(t *testing.T) {
	fr := flightrec.New(1024)
	_, _, addr := startServer(t, 4, Options{Stats: NewStats(0), Flight: fr})
	c := dialT(t, addr)

	const scTrace, linTrace = 0xA1, 0xB2
	c.send(wire.Frame{Type: wire.TIncBatch, ID: 1, Wire: 1, K: 3, Trace: scTrace})
	if f := c.recv(); f.Type != wire.TRanges || f.Trace != scTrace {
		t.Fatalf("traced SC reply: %+v", f)
	}
	c.send(wire.Frame{Type: wire.TInc, ID: 2, Wire: 0, Mode: wire.ModeLIN, Trace: linTrace})
	if f := c.recv(); f.Type != wire.TValue || f.Trace != linTrace {
		t.Fatalf("traced LIN reply: %+v", f)
	}

	// The flush span is recorded by the writer after the reply bytes go
	// out, so it can trail the recv by a beat.
	deadline := time.Now().Add(2 * time.Second)
	var sc, lin []flightrec.Span
	for {
		all := fr.Snapshot()
		sc, lin = spansFor(all, scTrace), spansFor(all, linTrace)
		if len(sc) >= 4 && len(lin) >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("incomplete span trails: sc=%+v lin=%+v", sc, lin)
		}
		time.Sleep(time.Millisecond)
	}

	// Both modes go through the one sweeper, so both leave the same trail.
	want := []flightrec.Stage{
		flightrec.StageServerMailbox, flightrec.StageServerSweep,
		flightrec.StageServerTraverse, flightrec.StageServerFlush,
	}
	for name, trail := range map[string][]flightrec.Span{"SC": sc, "LIN": lin} {
		got := stageSet(trail)
		for _, st := range want {
			if !got[st] {
				t.Fatalf("%s trace missing stage %v: %+v", name, st, trail)
			}
		}
		if len(trail) != len(want) {
			t.Fatalf("%s trace has %d spans, want %d: %+v", name, len(trail), len(want), trail)
		}
	}
	for _, s := range append(sc, lin...) {
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
		if s.Mode != 0 && s.Mode != 1 {
			t.Fatalf("bad span mode: %+v", s)
		}
	}
	for _, s := range lin {
		if s.Mode != 1 {
			t.Fatalf("LIN span not marked LIN: %+v", s)
		}
	}
}

// TestServerSideSampling: with TraceSample set, untraced increments get
// a server-minted trace id (in the server's actor namespace) echoed on
// the reply and recorded against.
func TestServerSideSampling(t *testing.T) {
	fr := flightrec.New(256)
	_, _, addr := startServer(t, 4, Options{Stats: NewStats(0), Flight: fr, TraceSample: 1})
	c := dialT(t, addr)

	c.send(wire.Frame{Type: wire.TInc, ID: 1, Wire: 2})
	f := c.recv()
	if f.Type != wire.TValue {
		t.Fatalf("inc: %+v", f)
	}
	if f.Trace == 0 {
		t.Fatal("server-side sampling minted no trace id")
	}
	if f.Trace>>40 != serverTraceActor {
		t.Fatalf("trace %#x not in the server's actor namespace", f.Trace)
	}
	if spans := spansFor(fr.Snapshot(), f.Trace); len(spans) == 0 {
		t.Fatal("no spans recorded for server-sampled request")
	}
}

// TestUDPLatencyRecorded pins the regression the tracing work audited:
// UDP-ingested increments must flow through the same per-mode latency
// histogram and stage histograms as TCP SC traffic (they ride the same
// mailbox and sweep), even though they get no reply.
func TestUDPLatencyRecorded(t *testing.T) {
	st := NewStats(0)
	s, _, _ := startServer(t, 4, Options{Stats: st})
	ua, err := s.ListenPacket("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.Dial("udp", ua.String())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	const n = 16
	for i := 0; i < n; i++ {
		enc, err := wire.EncodeFrame(&wire.Frame{Type: wire.TInc, ID: uint64(i), Wire: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pc.Write(enc); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Issued() < n {
		if time.Now().After(deadline) {
			t.Fatalf("served %d of %d UDP increments", s.Issued(), n)
		}
		time.Sleep(time.Millisecond)
	}
	snap := st.Snapshot()
	if snap.UDPDatagrams != n {
		t.Fatalf("accepted %d datagrams, want %d", snap.UDPDatagrams, n)
	}
	if snap.LatencySC.Count < n {
		t.Fatalf("UDP ops missing from the SC latency histogram: count %d, want >= %d", snap.LatencySC.Count, n)
	}
	for _, key := range []string{"mailbox/sc", "sweep/sc", "traverse/sc"} {
		if snap.Stages[key].Count < n {
			t.Fatalf("UDP ops missing from stage histogram %q: %+v", key, snap.Stages[key])
		}
	}
}

// TestStageHistogramsPerMode: each mode's mailbox, sweep and traverse
// histograms count exactly that mode's requests, and pipelined LIN
// requests amortize a traversal across the sweep like SC ones do. A
// deliberately slow backend (1 ms per IncBatch) makes the amortization
// structural rather than a timing accident: while one sweep stalls, the
// rest of a 16-deep pipeline piles into the mailbox and the next sweep
// takes it all, so the traverse time charged per op stays well below one
// IncBatch. Served one traversal per request, it would be at least one.
func TestStageHistogramsPerMode(t *testing.T) {
	const delay = time.Millisecond
	st := NewStats(0)
	s := New(&slowBackend{delay: delay}, Options{Stats: st})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialT(t, addr.String())

	const rounds, pipe = 5, 16
	id := uint64(1)
	for r := 0; r < rounds; r++ {
		fs := make([]wire.Frame, pipe)
		for i := range fs {
			fs[i] = wire.Frame{Type: wire.TInc, ID: id, Wire: int64(i % 2)}
			id++
		}
		c.send(fs...)
		for range fs {
			c.recv()
		}
		for i := range fs {
			fs[i] = wire.Frame{Type: wire.TInc, ID: id, Wire: int64(i % 2), Mode: wire.ModeLIN}
			id++
		}
		c.send(fs...)
		for range fs {
			c.recv()
		}
	}

	snap := st.Snapshot()
	const ops = rounds * pipe
	if snap.SCOps != ops || snap.LINOps != ops {
		t.Fatalf("served %d SC and %d LIN ops, want %d each", snap.SCOps, snap.LINOps, ops)
	}
	for _, mode := range []string{"sc", "lin"} {
		for _, stage := range []string{"mailbox", "sweep", "traverse"} {
			if n := snap.Stages[stage+"/"+mode].Count; n != ops {
				t.Fatalf("%s/%s counted %d requests, want %d", stage, mode, n, ops)
			}
		}
		if perOp := snap.Stages["traverse/"+mode].Sum / ops; perOp >= delay/2 {
			t.Fatalf("%s traverse charged %v per op against a %v IncBatch: not amortized", mode, perOp, delay)
		}
	}
}

// TestStageMetricsExposition: the labeled countd_stage_seconds family
// shows up in the Prometheus text output once stages have samples.
func TestStageMetricsExposition(t *testing.T) {
	st := NewStats(0)
	_, _, addr := startServer(t, 4, Options{Stats: st})
	c := dialT(t, addr)
	c.send(wire.Frame{Type: wire.TInc, ID: 1, Wire: 0})
	c.recv()
	c.send(wire.Frame{Type: wire.TInc, ID: 2, Wire: 0, Mode: wire.ModeLIN})
	c.recv()

	var sb strings.Builder
	st.AppendMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE countd_stage_seconds histogram",
		`countd_stage_seconds_bucket{stage="traverse",mode="sc",le="+Inf"}`,
		`countd_stage_seconds_bucket{stage="traverse",mode="lin",le="+Inf"}`,
		`countd_stage_seconds_count{stage="mailbox",mode="lin"}`,
		`countd_stage_seconds_count{stage="mailbox",mode="sc"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestAnomalyNotes: shed requests land in the flight recorder's black
// box with their trace attached.
func TestAnomalyNotes(t *testing.T) {
	fr := flightrec.New(64)
	// A one-slot mailbox with a scripted-slow backend would be
	// elaborate; a bad-wire error frame is the cheap deterministic anomaly.
	_, _, addr := startServer(t, 4, Options{Flight: fr})
	c := dialT(t, addr)
	c.send(wire.Frame{Type: wire.TInc, ID: 1, Wire: 99, Trace: 0xEE})
	if f := c.recv(); f.Type != wire.TError || f.Trace != 0xEE {
		t.Fatalf("bad-wire reply: %+v", f)
	}
	counts, recent := fr.Anomalies()
	if counts["error_frame"] == 0 {
		t.Fatalf("no error_frame anomaly noted: %v", counts)
	}
	found := false
	for _, a := range recent {
		if a.Kind == "error_frame" && a.Trace == 0xEE {
			found = true
		}
	}
	if !found {
		t.Fatalf("anomaly log lost the trace id: %+v", recent)
	}
}
