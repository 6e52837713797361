package dst

import (
	"bytes"
	"fmt"

	"repro/internal/flightrec"
)

// Flight-recorder auditing for traced simulation runs (RunOptions.Flight).
//
// With tracing on, every workload request is sampled, so the recorder
// must hold one complete span tree per increment operation: the client
// stages bracketing the server stages, every timestamp simulated and
// monotone along the request's journey. checkFlight turns any hole in
// that picture — a missing stage, a span outside its RPC window, an id
// no worker minted — into an ordinary invariant violation, which makes
// the tracing subsystem itself subject to the same seed-sweep regime as
// the protocol.

// sweptStages is the server-side trail of every answered increment, in
// either mode: a sweeper answers them all.
var sweptStages = []flightrec.Stage{
	flightrec.StageServerMailbox, flightrec.StageServerSweep,
	flightrec.StageServerTraverse, flightrec.StageServerFlush,
}

// checkFlight audits the run's span trees. Structural checks (spans end
// after they start, every id belongs to a worker's namespace) apply to
// every run; the completeness and monotonicity audit only to clean runs,
// where each sampled operation is guaranteed one untroubled journey.
func checkFlight(res *Result, rec *flightrec.Recorder) {
	sc := &res.Scenario
	spans := rec.Snapshot()
	byTrace := map[uint64][]flightrec.Span{}
	for _, s := range spans {
		if s.End < s.Start {
			res.Violations = append(res.Violations,
				fmt.Sprintf("flight: span ends before it starts: %+v", s))
		}
		if actor := s.Trace >> 40; actor < 1 || actor > uint64(sc.Workers) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("flight: orphan span outside every worker's namespace: %+v", s))
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	if !sc.CleanRun() {
		return
	}
	if n := rec.Dropped(); n != 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("flight: ring dropped %d spans on a clean run", n))
		return
	}
	// UDP scenarios note one udp_replay anomaly per rejected retransmit —
	// the expected flight-recorder breadcrumb of the replay window doing
	// its job. Anything beyond that is still a violation.
	counts, _ := rec.Anomalies()
	if len(sc.UDP) > 0 {
		if got, want := counts["udp_replay"], uint64(sc.UDPReplays()); got != want {
			res.Violations = append(res.Violations,
				fmt.Sprintf("flight: %d udp_replay anomalies, plan injected %d retransmits", got, want))
		}
		delete(counts, "udp_replay")
	}
	if len(counts) > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("flight: anomalies on a clean run: %v", counts))
	}

	// Every increment operation crossed the wire exactly once (no
	// retries on a clean run), so traces and operations must be 1:1.
	nInc := 0
	for _, op := range res.Ops {
		if op.Kind != OpRead {
			nInc++
		}
	}
	if len(byTrace) != nInc {
		res.Violations = append(res.Violations,
			fmt.Sprintf("flight: %d traces recorded for %d sampled operations", len(byTrace), nInc))
	}
	for id, ss := range byTrace {
		checkSpanTree(res, id, ss)
	}
}

// checkSpanTree audits one sampled request's spans on a clean run: the
// exact expected stage set for its path, each stage once, one mode
// throughout, the server trail chained end-to-start inside the client
// RPC window.
func checkSpanTree(res *Result, id uint64, ss []flightrec.Span) {
	bad := func(format string, args ...any) {
		res.Violations = append(res.Violations, "flight: "+fmt.Sprintf(format, args...))
	}
	by := map[flightrec.Stage]flightrec.Span{}
	for _, s := range ss {
		if _, dup := by[s.Stage]; dup {
			bad("trace %#x records stage %v twice", id, s.Stage)
			return
		}
		by[s.Stage] = s
		if s.Mode != ss[0].Mode {
			bad("trace %#x mixes modes: %+v", id, s)
		}
	}

	// Client trail: direct batches record only the RPC; combined
	// increments of either mode bracket it with combine and complete.
	server := sweptStages
	client := []flightrec.Stage{flightrec.StageClientRPC}
	if _, combined := by[flightrec.StageClientCombine]; combined {
		client = []flightrec.Stage{
			flightrec.StageClientCombine, flightrec.StageClientRPC,
			flightrec.StageClientComplete,
		}
	}
	if len(ss) != len(client)+len(server) {
		bad("trace %#x has %d spans, want %d: %+v", id, len(ss), len(client)+len(server), ss)
		return
	}
	for _, st := range append(append([]flightrec.Stage{}, client...), server...) {
		if _, ok := by[st]; !ok {
			bad("trace %#x missing stage %v: %+v", id, st, ss)
			return
		}
	}

	// Monotone chains in simulated time: client stages hand off in
	// order, the server trail chains end-to-start, and every server
	// span sits inside the client's RPC window (the server cannot act
	// before the request was sent nor after the reply was decoded).
	for i := 1; i < len(client); i++ {
		if by[client[i-1]].End > by[client[i]].Start {
			bad("trace %#x: %v overlaps %v", id, client[i-1], client[i])
		}
	}
	for i := 1; i < len(server); i++ {
		if by[server[i-1]].End > by[server[i]].Start {
			bad("trace %#x: %v overlaps %v", id, server[i-1], server[i])
		}
	}
	rpc := by[flightrec.StageClientRPC]
	for _, st := range server {
		if s := by[st]; s.Start < rpc.Start || s.End > rpc.End {
			bad("trace %#x: server stage %v [%d,%d] outside RPC window [%d,%d]",
				id, st, s.Start, s.End, rpc.Start, rpc.End)
		}
	}
}

// flightDump renders the recorder's canonical black-box bytes — the
// artifact a failing traced seed ships, and the object of the
// byte-identical replay contract.
func flightDump(rec *flightrec.Recorder) []byte {
	var b bytes.Buffer
	_ = rec.WriteDump(&b, nil)
	return b.Bytes()
}
