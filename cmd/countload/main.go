// Command countload drives a running countd with concurrent remote
// clients and reports what the service sustained: ops/s, p50/p95/p99
// latency, errors, and — because the values a counting network hands out
// are auditable — a uniqueness check over every value observed. It is a
// smoke driver: it exits non-zero when nothing completed or the audit
// failed; the numbers to compare across commits come from the
// repository's benchmark (bench/README.md).
//
// -sim N runs deterministic whole-system simulation seed N
// (internal/dst) with this driver's client-side configuration (-g,
// -mode, -adaptive) against a simulated server — no live countd needed —
// and audits the protocol invariants over the outcome.
//
// -trace-sample N traces one in N increments end to end: the client
// stamps the request with a trace id the server propagates, both sides
// record stage spans, and -trace-out merges them into one Chrome
// trace-event timeline (chrome://tracing, Perfetto). Point -trace-from
// at the countd telemetry endpoint to pull the server half from its
// /debug/flight black box; without it the timeline holds the client
// part only.
//
// -udp ADDR switches to open-loop fire-and-forget mode against countd's
// UDP endpoint: -g senders blast batched SC increment datagrams (one
// sendmmsg syscall per -udp-batch datagrams on Linux) with unique dedup
// ids, no response path, while the TCP endpoint's Read supplies the
// issued-count delta that audits how much actually minted — never more
// than was sent, or the service duplicated a fire-and-forget increment.
//
// -cluster A,B,C drives a multi-node counting cluster instead of a
// single countd: each load client is a cluster-aware client
// (client.DialCluster) bootstrapped from the full endpoint list, so it
// fails over when a node dies mid-run and keeps counting. The uniqueness
// audit then spans every node — a duplicate across machines is an
// ownership-protocol violation, not just a server bug.
//
// Usage:
//
//	countload -addr 127.0.0.1:9701 -g 4 -duration 2s
//	countload -addr 127.0.0.1:9701 -g 64 -mode lin
//	countload -cluster 127.0.0.1:9701,127.0.0.1:9711,127.0.0.1:9721 -mode lin
//	countload -addr 127.0.0.1:9701 -udp 127.0.0.1:9702 -udp-batch 64 -duration 2s
//	countload -g 8 -mode lin -sim 42
//	countload -addr 127.0.0.1:9701 -trace-sample 100 \
//	    -trace-from http://127.0.0.1:8080 -trace-out trace.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	countingnet "repro"
	"repro/internal/client"
	"repro/internal/dst"
	"repro/internal/packetio"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

type options struct {
	addr     string        // countd service address
	clients  int           // concurrent client connections
	window   int           // per-client pipelined in-flight window
	mode     string        // consistency mode requested per increment
	duration time.Duration // run length
	adaptive bool          // RTT-adaptive in-flight window
	cpuprof  string        // write a CPU profile here ("" disables)
	sim      uint64        // deterministic-simulation seed (0: drive a live countd)
	sample   int           // trace 1 in N increments end to end (0: off)
	traceOut string        // merged Chrome timeline output path ("" disables)
	traceSrc string        // countd telemetry base URL for the server-side spans ("" skips)
	udp      string        // countd UDP endpoint: open-loop fire-and-forget mode ("" disables)
	udpBatch int           // datagrams per sendmmsg batch in UDP mode
	udpWires int           // spread UDP increments across this many input wires
	udpGSO   int           // frames packed per GSO super-datagram (0/1: off)
	cluster  string        // comma-separated cluster endpoints ("" : single -addr daemon)
}

// clusterAddrs parses the -cluster endpoint list.
func (o options) clusterAddrs() []string {
	var out []string
	for _, a := range strings.Split(o.cluster, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:9701", "countd service address")
	flag.IntVar(&o.clients, "g", 4, "concurrent clients")
	flag.IntVar(&o.window, "window", 64, "per-client pipelined in-flight window")
	flag.StringVar(&o.mode, "mode", "sc", "consistency mode: sc or lin")
	flag.DurationVar(&o.duration, "duration", 2*time.Second, "run length")
	flag.BoolVar(&o.adaptive, "adaptive", false, "tune each connection's in-flight window to measured RTT (AIMD)")
	flag.StringVar(&o.cpuprof, "cpuprofile", "", "write a CPU profile to this file (empty: off)")
	flag.Uint64Var(&o.sim, "sim", 0, "run this deterministic-simulation seed with the client-side configuration instead of driving a live server (0: off)")
	flag.IntVar(&o.sample, "trace-sample", 0, "trace 1 in N increments through the serving path (0: off)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the sampled requests as Chrome trace-event JSON here (requires -trace-sample)")
	flag.StringVar(&o.traceSrc, "trace-from", "", "countd telemetry base URL (e.g. http://127.0.0.1:8080); its /debug/flight spans merge into -trace-out as the server part")
	flag.StringVar(&o.udp, "udp", "", "countd UDP endpoint: open-loop fire-and-forget SC increments instead of the TCP workload (empty: off)")
	flag.IntVar(&o.udpBatch, "udp-batch", 64, "datagrams per sendmmsg batch in -udp mode (1..64)")
	flag.IntVar(&o.udpWires, "udp-wires", 1, "spread -udp increments across this many input wires (must not exceed the served width)")
	flag.IntVar(&o.udpGSO, "udp-gso", 0, "pack this many unique-id frames into one UDP_SEGMENT super-datagram per send slot (0/1: off, max 64; falls back to unsegmented sends when the kernel lacks UDP_SEGMENT)")
	flag.StringVar(&o.cluster, "cluster", "", "comma-separated cluster endpoints; drive the whole cluster with failover instead of one -addr daemon (empty: off)")
	flag.Parse()

	if o.cluster != "" && (o.udp != "" || o.sim != 0) {
		fmt.Fprintln(os.Stderr, "countload: -cluster drives the TCP workload only (no -udp, no -sim)")
		os.Exit(2)
	}

	if o.sim != 0 {
		if err := runSim(o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "countload:", err)
			os.Exit(1)
		}
		return
	}

	if o.cpuprof != "" {
		f, err := os.Create(o.cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "countload:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "countload:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(context.Background(), o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "countload:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a flag combination run refuses before it dials anything.
var errUsage = errors.New("usage")

// runSim executes one deterministic whole-system simulation seed with
// this driver's client-side configuration — worker count from -g,
// consistency mode from -mode, AIMD window from -adaptive — against a
// simulated server on the virtual clock and in-memory transport. The
// per-op outcomes get the same uniqueness audit the live driver applies,
// plus the full dst invariant set (step property, LIN order, retry
// budgets, clean drain).
func runSim(o options, out io.Writer) error {
	if _, err := countingnet.ParseConsistencyMode(o.mode); err != nil {
		return err
	}
	if o.clients <= 0 {
		return fmt.Errorf("need at least one client, got %d", o.clients)
	}
	ov := dst.Overrides{Workers: o.clients, Adaptive: &o.adaptive}
	if o.mode == "lin" {
		ov.Mode = "lin"
	} else {
		ov.Mode = "sc"
	}
	res, err := dst.RunScenario(dst.GenScenarioWith(o.sim, ov), dst.RunOptions{})
	if err != nil {
		return err
	}
	var ops, errs int
	for _, op := range res.Ops {
		if op.Err == "" {
			ops++
		} else {
			errs++
		}
	}
	fmt.Fprintf(out, "countload: sim seed %d (%s), %d clients, mode %s, adaptive %v\n",
		o.sim, res.Scenario.Flavor, o.clients, o.mode, o.adaptive)
	fmt.Fprintf(out, "  ops %d ok / %d failed, values delivered %d, issued %d, %d steps\n",
		ops, errs, res.Delivered, res.Issued, res.Steps)
	for _, v := range res.Violations {
		fmt.Fprintf(out, "  violation: %s\n", v)
	}
	if res.Failed() {
		return fmt.Errorf("sim seed %d: %d invariant violations", o.sim, len(res.Violations))
	}
	fmt.Fprintf(out, "countload: sim seed %d ok\n", o.sim)
	return nil
}

// counter is the slice of the client surface the load loop needs — both
// the single-endpoint client and the cluster-aware one satisfy it.
type counter interface {
	IncCtx(ctx context.Context, w int) (int64, error)
	Close() error
}

// result is what one load run measured.
type result struct {
	Ops      int64
	Errors   int64
	Elapsed  time.Duration
	Lat      telemetry.LatencySummary
	Dup      int64 // values handed to two callers (must be 0)
	MaxValue int64
	Windows  []client.WindowStats        // per-client adaptive-window state at end of run
	Wire     client.Stats                // transport counters summed over the clients (zero in cluster mode)
	Flight   *countingnet.FlightRecorder // client-side spans (nil: tracing off)
}

func (r result) opsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// run drives the load and writes the human report. Split from main for
// in-process testing.
func run(ctx context.Context, o options, out io.Writer) error {
	mode, err := countingnet.ParseConsistencyMode(o.mode)
	if err != nil {
		return err
	}
	if o.clients <= 0 {
		return fmt.Errorf("need at least one client, got %d", o.clients)
	}
	if o.traceOut != "" && o.sample <= 0 {
		return fmt.Errorf("%w: -trace-out requires -trace-sample", errUsage)
	}
	if o.traceSrc != "" && o.traceOut == "" {
		return fmt.Errorf("%w: -trace-from requires -trace-out", errUsage)
	}
	if o.udp != "" {
		return runUDP(ctx, o, out)
	}

	res, err := drive(ctx, o, mode)
	if err != nil {
		return err
	}

	target := o.addr
	if o.cluster != "" {
		target = fmt.Sprintf("cluster[%s]", o.cluster)
	}
	fmt.Fprintf(out, "countload: %s, %d clients x window %d, mode %s, %v\n",
		target, o.clients, o.window, o.mode, res.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  ops %d (%.0f ops/s), errors %d, duplicates %d, max value %d\n",
		res.Ops, res.opsPerSec(), res.Errors, res.Dup, res.MaxValue)
	fmt.Fprintf(out, "  latency p50 %v p95 %v p99 %v max %v\n",
		res.Lat.P50, res.Lat.P95, res.Lat.P99, res.Lat.Max)
	if w := res.Wire; w.Writes > 0 && res.Ops > 0 {
		// frames/op is the client's combining factor: 1 for LIN, far below
		// for SC.
		fmt.Fprintf(out, "  wire: %d frames in %d writes (%.1f frames/write, %.3f frames/op), retries %d, refusals %d\n",
			w.Frames, w.Writes, float64(w.Frames)/float64(w.Writes), float64(w.Frames)/float64(res.Ops), w.Retries, w.Refusals)
	}
	if o.adaptive {
		for i, ws := range res.Windows {
			for j, eff := range ws.Effective {
				fmt.Fprintf(out, "  client %d conn %d: window %d/%d, rtt ewma %v floor %v\n",
					i, j, eff, ws.Window, ws.RTTEwma[j].Round(time.Microsecond), ws.RTTMin[j].Round(time.Microsecond))
			}
		}
	}
	if res.Dup > 0 {
		return fmt.Errorf("%d duplicate values observed — the service violated uniqueness", res.Dup)
	}
	if res.Ops == 0 {
		return fmt.Errorf("no operation completed (errors %d) — is countd up at %s?", res.Errors, target)
	}

	if o.traceOut != "" {
		n, err := writeTimeline(o, res)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  trace: %d span events -> %s\n", n, o.traceOut)
	}
	return nil
}

// runUDP drives the fire-and-forget endpoint open loop: -g senders each
// own a UDP flow (the kernel's SO_REUSEPORT hash pins a flow to one
// server socket, so a flow's dedup ids always meet the same replay
// window) and blast -udp-batch datagrams per WriteBatch — one sendmmsg
// syscall on Linux. There is no response path, so the TCP endpoint
// audits the outcome: the issued-count delta across the run is how much
// actually minted, and it may never exceed the datagrams sent.
func runUDP(ctx context.Context, o options, out io.Writer) error {
	if o.mode != "sc" {
		return fmt.Errorf("the UDP endpoint serves SC increments only, got -mode %s", o.mode)
	}
	if o.udpBatch < 1 || o.udpBatch > packetio.MaxBatch {
		return fmt.Errorf("-udp-batch must be in [1,%d], got %d", packetio.MaxBatch, o.udpBatch)
	}
	if o.udpWires < 1 {
		return fmt.Errorf("-udp-wires must be positive, got %d", o.udpWires)
	}
	if o.udpGSO < 0 || o.udpGSO > packetio.MaxSegments {
		return fmt.Errorf("-udp-gso must be in [0,%d], got %d", packetio.MaxSegments, o.udpGSO)
	}
	gso := o.udpGSO
	if gso > 1 && !packetio.Segmentation() {
		// Graceful fallback, loudly: the run proceeds unsegmented so the
		// workload still lands, but the banner must not claim a GSO
		// measurement the kernel never made.
		fmt.Fprintln(out, "countload: kernel lacks UDP_SEGMENT/UDP_GRO; falling back to unsegmented sends (-udp-gso 0)")
		gso = 0
	}
	aud, err := client.Dial(o.addr, client.Options{OpTimeout: time.Second})
	if err != nil {
		return fmt.Errorf("dial %s for the issued-count audit: %w", o.addr, err)
	}
	defer aud.Close()
	before, err := aud.Read(ctx)
	if err != nil {
		return fmt.Errorf("read issued count: %w", err)
	}

	runCtx, cancel := context.WithTimeout(ctx, o.duration)
	defer cancel()
	var stop atomic.Bool
	defer context.AfterFunc(runCtx, func() { stop.Store(true) })()

	sent := make([]int64, o.clients)
	werrs := make([]int64, o.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < o.clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := packetio.Dial(o.udp, packetio.Options{GSO: gso > 1})
			if err != nil {
				werrs[g]++
				return
			}
			defer conn.Close()
			b := packetio.NewBatch(o.udpBatch)
			var f wire.Frame
			// Dedup ids are globally unique across senders — (g+1) in the
			// high bits, a per-sender sequence below — so two flows hashed
			// onto one server socket can never replay each other. The
			// constant high bits also pin the id's uvarint length, which
			// is what keeps a GSO super-datagram's frames equal-stride.
			seq := uint64(0)
			enc := func(dst []byte) []byte {
				f = wire.Frame{Type: wire.TInc, ID: uint64(g+1)<<40 | seq, Wire: int64(seq % uint64(o.udpWires))}
				seq++
				p, err := wire.AppendFrame(dst, &f)
				if err != nil {
					return dst
				}
				return p
			}
			// pack fills one slot with gso frames and declares the stride;
			// the kernel splits the slot into gso on-wire datagrams.
			pack := func(dst []byte) ([]byte, int) {
				stride := 0
				for j := 0; j < gso; j++ {
					before := len(dst)
					dst = enc(dst)
					if stride == 0 {
						stride = len(dst) - before
					}
				}
				return dst, stride
			}
			perSlot := int64(1)
			if gso > 1 {
				perSlot = int64(gso)
			}
			for !stop.Load() {
				b.Reset()
				for b.Len() < b.Cap() {
					if gso > 1 {
						if !b.AppendSegments(pack) {
							break
						}
					} else if !b.AppendWith(enc) {
						break
					}
				}
				n, err := conn.WriteBatch(b)
				sent[g] += int64(n) * perSlot
				if err != nil {
					werrs[g]++
					if n == 0 {
						time.Sleep(time.Millisecond) // persistent send failure: don't spin
					}
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total, errs int64
	for g := range sent {
		total += sent[g]
		errs += werrs[g]
	}

	// Drain: fire-and-forget has no completion signal, so poll the issued
	// count until it stops moving (or a bounded wait elapses) before
	// taking the delta.
	after := before
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		v, err := aud.Read(ctx)
		if err != nil {
			return fmt.Errorf("read issued count: %w", err)
		}
		if v == after {
			break
		}
		after = v
	}
	minted := after - before

	gsoNote := ""
	if gso > 1 {
		gsoNote = fmt.Sprintf(" x gso %d", gso)
	}
	fmt.Fprintf(out, "countload: udp %s open loop, %d senders x batch %d%s, %v\n",
		o.udp, o.clients, o.udpBatch, gsoNote, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  datagrams %d (%.0f/s), write errors %d, minted %d (issued %d -> %d)\n",
		total, float64(total)/elapsed.Seconds(), errs, minted, before, after)
	if total == 0 {
		return fmt.Errorf("no datagram sent (errors %d) — is the countd UDP endpoint up at %s?", errs, o.udp)
	}
	if minted > total {
		return fmt.Errorf("issued delta %d exceeds %d datagrams sent — the service minted duplicates", minted, total)
	}
	if minted == 0 {
		return fmt.Errorf("nothing minted from %d datagrams — is %s countd's UDP endpoint?", total, o.udp)
	}
	return nil
}

// writeTimeline merges the run's client-side spans with the server's
// /debug/flight dump (when -trace-from names a countd telemetry
// endpoint) into one Chrome trace-event timeline, then re-reads the
// artifact to prove the export round-trips before reporting success.
func writeTimeline(o options, res result) (int, error) {
	parts := []countingnet.FlightPart{{Name: "countload", Spans: res.Flight.Snapshot()}}
	if o.traceSrc != "" {
		spans, err := fetchServerSpans(strings.TrimSuffix(o.traceSrc, "/") + "/debug/flight")
		if err != nil {
			return 0, err
		}
		parts = append(parts, countingnet.FlightPart{Name: "countd", Spans: spans})
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return 0, err
	}
	if err := countingnet.WriteFlightChrome(f, parts...); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	rf, err := os.Open(o.traceOut)
	if err != nil {
		return 0, err
	}
	defer rf.Close()
	evs, err := countingnet.ReadFlightChrome(rf)
	if err != nil {
		return 0, fmt.Errorf("trace round-trip: %w", err)
	}
	return len(evs), nil
}

// fetchServerSpans pulls the server half of the timeline from countd's
// flight-recorder endpoint.
func fetchServerSpans(url string) ([]countingnet.FlightSpan, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("fetch server spans: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch server spans: %s: status %d", url, resp.StatusCode)
	}
	var d countingnet.FlightDump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, fmt.Errorf("fetch server spans: %w", err)
	}
	return d.Spans, nil
}

// drive runs the measurement: o.clients connections, each with o.window
// fixed worker goroutines looping sequential increments (the worker count
// is the pipelining — no goroutine is spawned per op, and no global lock
// sits on the hot path). Every observed value is collected per worker and
// audited for uniqueness after the run with one sort.
func drive(ctx context.Context, o options, mode countingnet.ConsistencyMode) (result, error) {
	var res result
	ctx, cancel := context.WithTimeout(ctx, o.duration)
	defer cancel()

	// Tracing: one shared recorder for all clients, each client its own
	// actor namespace (g+1) so merged ids never collide. Capacity scales
	// with the expected sampled volume; ring wraparound just drops the
	// oldest spans.
	if o.sample > 0 {
		res.Flight = countingnet.NewFlightRecorder(1 << 16)
	}

	lat := telemetry.NewHistogram(o.clients * o.window)
	type workerOut struct {
		ops, errs int64
		maxVal    int64
		vals      []int64
	}
	outs := make([]workerOut, o.clients*o.window)
	windows := make([]client.WindowStats, o.clients)
	wires := make([]client.Stats, o.clients)

	// The stop signal is an atomic flag, not ctx.Err(): with thousands of
	// workers on the hot loop, a per-op ctx.Err() is a measurable tax on
	// the very service being measured.
	var stop atomic.Bool
	defer context.AfterFunc(ctx, func() { stop.Store(true) })()

	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < o.clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			copt := client.Options{
				Window:         o.window,
				Mode:           mode,
				OpTimeout:      time.Second,
				AdaptiveWindow: o.adaptive,
				Flight:         res.Flight,
				TraceSample:    o.sample,
				TraceActor:     uint64(g) + 1,
			}
			// In cluster mode every load client is cluster-aware: it
			// bootstraps from the full endpoint list and fails an op over to
			// the next endpoint when a node dies or refuses mid-run.
			var (
				c   counter
				cc  *client.Client
				err error
			)
			if addrs := o.clusterAddrs(); len(addrs) > 0 {
				copt.Retries = 5
				// Rotate the endpoint list per client so sticky cursors
				// spread round-robin across the nodes: the measurement is the
				// cluster's throughput, not one hot node's.
				rot := make([]string, len(addrs))
				for i := range addrs {
					rot[i] = addrs[(g+i)%len(addrs)]
				}
				c, err = client.DialCluster(rot, copt)
			} else {
				cc, err = client.Dial(o.addr, copt)
				c = cc
			}
			if err != nil {
				outs[g*o.window].errs++
				return
			}
			defer c.Close()

			var cwg sync.WaitGroup
			for w := 0; w < o.window; w++ {
				cwg.Add(1)
				go func(w int) {
					defer cwg.Done()
					id := g*o.window + w
					out := &outs[id]
					out.maxVal = -1
					out.vals = make([]int64, 0, 512)
					// Each op runs under a non-cancellable context — the stop
					// flag bounds the loop, and OpTimeout bounds each op — so
					// thousands of workers don't contend on one shared
					// ctx.Done channel inside the client. Latency is sampled
					// 1-in-64 per worker: two clock reads plus a histogram
					// record per op would cost more CPU than some of the
					// increments being timed, and tens of thousands of
					// samples per run keep the percentiles stable.
					for n := 0; !stop.Load(); n++ {
						sample := n&63 == 0
						var s time.Time
						if sample {
							s = time.Now()
						}
						v, err := c.IncCtx(context.Background(), g)
						if err != nil {
							if !stop.Load() {
								out.errs++
							}
							continue
						}
						if sample {
							lat.Record(id, time.Since(s))
						}
						out.ops++
						out.vals = append(out.vals, v)
						if v > out.maxVal {
							out.maxVal = v
						}
					}
				}(w)
			}
			cwg.Wait()
			if cc != nil {
				windows[g] = cc.WindowStats()
				wires[g] = cc.Stats()
			}
		}(g)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Windows = windows
	for _, w := range wires {
		res.Wire.Frames += w.Frames
		res.Wire.Writes += w.Writes
		res.Wire.Retries += w.Retries
		res.Wire.Refusals += w.Refusals
	}

	// Post-run merge and uniqueness audit: one sort over every observed
	// value replaces the per-op map the driver used to maintain.
	var all []int64
	for i := range outs {
		res.Ops += outs[i].ops
		res.Errors += outs[i].errs
		if outs[i].maxVal > res.MaxValue {
			res.MaxValue = outs[i].maxVal
		}
		all = append(all, outs[i].vals...)
	}
	slices.Sort(all)
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			res.Dup++
		}
	}
	res.Lat = lat.Summary()
	return res, nil
}
