package telemetry_test

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/construct"
	"repro/internal/msgnet"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// TestRuntimeInstrumentedEndToEnd is the acceptance run: a compiled B(8)
// under concurrent load with a Collector attached and the online monitor
// auditing every operation, ≥1000 tokens.
func TestRuntimeInstrumentedEndToEnd(t *testing.T) {
	const (
		workers = 12
		perWork = 100
		total   = workers * perWork
	)
	spec := construct.MustBitonic(8)
	net := runtime.MustCompile(spec)
	col := telemetry.NewCollectorFor(spec)
	net.SetObserver(col)
	mon := consistency.NewOnline()

	w := runtime.Workload{Workers: workers, OpsPerWorker: perWork, Monitor: mon}
	if r := consistency.Audit(w.Run(net), total); r.Duplicates != 0 || r.OutOfRange != 0 {
		t.Fatalf("values are not exactly 0..%d: %+v", total-1, r)
	}

	// Collector: every token seen once, every layer crossed once per token
	// (B(8) is uniform with depth 6), latency recorded for each.
	s := col.Snapshot()
	if s.Tokens != total {
		t.Fatalf("collector tokens = %d, want %d", s.Tokens, total)
	}
	if want := uint64(total * spec.Depth()); s.TotalToggles() != want {
		t.Fatalf("total toggles = %d, want %d (tokens × depth)", s.TotalToggles(), want)
	}
	if s.Latency.Count != total || s.Latency.Max <= 0 {
		t.Fatalf("latency summary wrong: %+v", s.Latency)
	}
	var sinks uint64
	for _, v := range s.SinkTokens {
		sinks += v
	}
	if sinks != total {
		t.Fatalf("sink tokens = %d, want %d", sinks, total)
	}

	// The live monitor saw the same operations.
	if f := mon.Fractions(); f.Total != total {
		t.Fatalf("monitor audited %d ops, want %d", f.Total, total)
	}
}

// TestMsgnetInstrumentedEndToEnd runs the same acceptance shape against
// the message-passing substrate via WithObserver.
func TestMsgnetInstrumentedEndToEnd(t *testing.T) {
	const (
		workers = 8
		perWork = 50
		total   = workers * perWork
	)
	spec := construct.MustBitonic(4)
	col := telemetry.NewCollectorFor(spec)
	net, err := msgnet.Start(spec, 1, msgnet.WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	w := runtime.Workload{Workers: workers, OpsPerWorker: perWork}
	recs := w.Run(net)
	net.Close()
	if r := consistency.Audit(recs, total); r.Duplicates != 0 || r.OutOfRange != 0 {
		t.Fatalf("values are not exactly 0..%d: %+v", total-1, r)
	}
	s := col.Snapshot()
	if s.Tokens != total {
		t.Fatalf("collector tokens = %d, want %d", s.Tokens, total)
	}
	if want := uint64(total * spec.Depth()); s.TotalToggles() != want {
		t.Fatalf("total toggles = %d, want %d", s.TotalToggles(), want)
	}
}
