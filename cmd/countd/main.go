// Command countd serves a compiled counting network over the wire
// protocol — the daemon form of the repository. It compiles a network,
// wraps it in the coalescing server (internal/server), and listens on
// TCP for framed Inc/IncBatch/Read/Snapshot requests, each carrying its
// own SC|LIN consistency mode. Concurrent increments from different
// connections are folded into single IncBatch FAA sweeps, run one at a
// time by the server's one sweeper, so every sweep's values lie above
// the previous sweep's and LIN is served by the same sweeps as SC.
//
// Endpoints:
//
//	-listen  TCP service address (the wire protocol; countload/client.Dial)
//	-udp     optional UDP datagram endpoint: fire-and-forget SC increments
//	-telemetry  optional HTTP address serving /metrics (balancer toggles,
//	            per-mode latency histograms, per-stage countd_stage_seconds,
//	            coalescing factor, queue high-water marks),
//	            /debug/countingnet, /debug/flight and pprof
//
// Tracing: -trace-sample N samples one in N untraced requests into the
// flight recorder under a server-minted trace id (requests that arrive
// already traced by a client always record); -flight N sizes the
// recorder's span ring and enables /debug/flight, the JSON black box
// countload merges with its client-side spans into one Chrome timeline.
// -flight-out FILE additionally dumps the black box on anomaly bursts
// (backpressure sheds, mailbox timeouts, evictions, error frames) and at
// exit — the post-mortem artifact for a misbehaving deployment.
//
// Clustering: -cluster-listen starts the cluster half (internal/cluster)
// and serves the daemon as one node of a multi-machine logical counter.
// The node gossips membership with the -join seeds, mints SC increments
// from epoch-fenced id blocks owned locally (zero cross-node RPCs on the
// SC hot path), and forwards LIN increments to the elected leader's
// serialization point so the remote step property holds cluster-wide.
// -node-id must be unique per node. In cluster mode the network flags
// (-net, -w) only shape the advertised wire fan; ids come from the
// cluster's block allocator, not a compiled network.
//
//	countd -listen :9701 -cluster-listen 127.0.0.1:9801 -node-id 1 \
//	       -join 127.0.0.1:9801,127.0.0.1:9802,127.0.0.1:9803
//
// With -duration 0 countd serves until interrupted (SIGINT drains in
// flight requests and closes connections cleanly); a positive -duration
// runs that long and exits, which is how the CI smoke job uses it.
//
// -sim N skips serving entirely and instead runs deterministic
// whole-system simulation seed N (internal/dst) through this daemon's
// exact configuration — same network spec, consistency mode and server
// tuning — on a virtual clock and in-memory transport, auditing the
// protocol invariants. `countd -w 8 -mode lin -sim 42` answers "does my
// deployment configuration survive adversarial schedules?" without
// opening a socket.
//
// Usage:
//
//	countd -net bitonic -w 8 -listen :9701 -telemetry :8080
//	countd -w 16 -mode lin -listen 127.0.0.1:9701   # linearizable by default
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	countingnet "repro"
	"repro/internal/cluster"
	"repro/internal/dst"
)

type options struct {
	kind     string        // network construction: bitonic, periodic or tree
	width    int           // network fan (power of two)
	listen   string        // TCP service address
	udp      string        // UDP datagram address ("" disables)
	telem    string        // telemetry HTTP address ("" disables)
	mode     string        // default consistency: sc or lin (serve every increment as LIN)
	mailbox  int           // request mailbox depth (0: server default)
	batch    int           // sweep batch limit (0: server default)
	opTime   time.Duration // per-request mailbox deadline (0: none)
	flushDur time.Duration // writer flush deadline (0: default, <0: flush eagerly)
	flushBy  int           // writer flush byte threshold (0: default)
	udpSocks int           // SO_REUSEPORT socket count for -udp (0: server default)
	udpBatch int           // datagrams per recvmmsg syscall (0: server default)
	udpPort  bool          // force the portable single-datagram UDP read loop
	udpGSO   bool          // UDP GSO/GRO segmentation offload (auto-falls back)
	duration time.Duration // run length (0: serve until interrupted)
	cpuprof  string        // write a CPU profile here ("" disables)
	sim      uint64        // deterministic-simulation seed (0: serve normally)
	sample   int           // server-side trace sampling: 1 in N untraced requests (0: off)
	flight   int           // flight-recorder span capacity (0: off unless -trace-sample)
	flOut    string        // dump the black box here on anomalies and at exit ("" disables)

	clListen string // cluster transport address ("" : standalone daemon)
	join     string // comma-separated cluster seed addresses to gossip with
	nodeID   uint64 // cluster node id, unique per node
}

func main() {
	var o options
	flag.StringVar(&o.kind, "net", "bitonic", "network: bitonic, periodic or tree")
	flag.IntVar(&o.width, "w", 8, "network fan (power of two)")
	flag.StringVar(&o.listen, "listen", ":9701", "TCP service address")
	flag.StringVar(&o.udp, "udp", "", "UDP datagram address for fire-and-forget SC increments (empty: off)")
	flag.IntVar(&o.udpSocks, "udp-sockets", 0, "UDP sockets sharing the port via SO_REUSEPORT, one batched read loop each (0: default, min(GOMAXPROCS,4) on Linux)")
	flag.IntVar(&o.udpBatch, "udp-batch", 0, "datagrams read per recvmmsg syscall on the UDP endpoint, up to 64 (0: default)")
	flag.BoolVar(&o.udpPort, "udp-portable", false, "force the portable single-datagram UDP read loop (benchmarking baseline)")
	flag.BoolVar(&o.udpGSO, "udp-gso", true, "UDP GSO/GRO segmentation offload on the -udp endpoint; falls back to the plain batched path when the kernel lacks UDP_SEGMENT/UDP_GRO")
	flag.StringVar(&o.telem, "telemetry", "", "HTTP telemetry address (empty: off)")
	flag.StringVar(&o.mode, "mode", "sc", "default consistency: sc, or lin to serve every increment as LIN (forwarded to the leader in a cluster)")
	flag.IntVar(&o.mailbox, "mailbox", 0, "request mailbox depth (0: default)")
	flag.IntVar(&o.batch, "batch", 0, "sweep batch limit (0: default)")
	flag.DurationVar(&o.opTime, "optimeout", 0, "fail requests queued longer than this (0: never)")
	flag.DurationVar(&o.flushDur, "flush-delay", 0, "writer flush deadline for pipelined responses (0: default 200µs, negative: flush eagerly)")
	flag.IntVar(&o.flushBy, "flush-bytes", 0, "writer flush byte threshold (0: default 16KiB)")
	flag.DurationVar(&o.duration, "duration", 0, "run length (0: serve until interrupted)")
	flag.StringVar(&o.cpuprof, "cpuprofile", "", "write a CPU profile to this file (empty: off)")
	flag.Uint64Var(&o.sim, "sim", 0, "run this deterministic-simulation seed through the daemon's configuration instead of serving (0: off)")
	flag.IntVar(&o.sample, "trace-sample", 0, "sample 1 in N untraced requests into the flight recorder with a server-minted trace id (0: off; client-traced requests always record)")
	flag.IntVar(&o.flight, "flight", 0, "flight recorder span capacity; serves /debug/flight on the telemetry endpoint (0: off, or 4096 when -trace-sample is set)")
	flag.StringVar(&o.flOut, "flight-out", "", "write the flight recorder's black box to this file on each anomaly burst and at exit (empty: off)")
	flag.StringVar(&o.clListen, "cluster-listen", "", "cluster transport address; joins this daemon to a multi-node counting cluster (empty: standalone)")
	flag.StringVar(&o.join, "join", "", "comma-separated cluster addresses to gossip with (this node's own -cluster-listen may be included)")
	flag.Uint64Var(&o.nodeID, "node-id", 0, "cluster node id, unique across the cluster, >= 1 (required with -cluster-listen)")
	flag.Parse()

	if o.clListen == "" && (o.join != "" || o.nodeID != 0) {
		fmt.Fprintln(os.Stderr, "countd: -join/-node-id need -cluster-listen")
		os.Exit(2)
	}
	if o.clListen != "" && o.nodeID == 0 {
		fmt.Fprintln(os.Stderr, "countd: -cluster-listen needs -node-id >= 1 (id 0 is the wire's no-node sentinel)")
		os.Exit(2)
	}
	if o.clListen != "" && o.sim != 0 {
		fmt.Fprintln(os.Stderr, "countd: -sim simulates a standalone daemon; cluster universes are countsim -cluster")
		os.Exit(2)
	}

	if o.sim != 0 {
		if err := runSim(o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "countd:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "countd:", err)
		os.Exit(1)
	}
}

// runSim executes one deterministic whole-system simulation seed with
// this daemon's flag-derived configuration — the same network spec,
// consistency mode and server tuning (-net, -w, -mode, -mailbox,
// -optimeout) the serving path would use, but on the virtual
// clock and in-memory transport, with a seed-generated workload and
// fault schedule. The invariant audit that countsim applies to sweeps
// runs on this single seed; a violation is a daemon bug.
func runSim(o options, out io.Writer) error {
	mode, err := countingnet.ParseConsistencyMode(o.mode)
	if err != nil {
		return err
	}
	spec, err := buildSpec(o.kind, o.width)
	if err != nil {
		return err
	}
	ctr, err := countingnet.Compile(spec)
	if err != nil {
		return err
	}
	// Scenario width is the compiled network's fan-in, not -w: a tree of
	// any -w has a single input wire.
	ov := dst.Overrides{Width: ctr.Width(), Mailbox: o.mailbox, SrvOpTimeout: o.opTime}
	if mode == countingnet.ModeLIN {
		ov.Mode = "lin"
	}
	res, err := dst.RunScenario(dst.GenScenarioWith(o.sim, ov), dst.RunOptions{Backend: ctr})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "countd: sim seed %d (%s), %s width %d, mode %s: %d ops, issued %d, delivered %d, %d steps\n",
		o.sim, res.Scenario.Flavor, o.kind, o.width, o.mode, len(res.Ops), res.Issued, res.Delivered, res.Steps)
	for _, v := range res.Violations {
		fmt.Fprintf(out, "  violation: %s\n", v)
	}
	if res.Failed() {
		return fmt.Errorf("sim seed %d: %d invariant violations", o.sim, len(res.Violations))
	}
	fmt.Fprintf(out, "countd: sim seed %d ok\n", o.sim)
	return nil
}

// buildSpec constructs the requested network specification.
func buildSpec(kind string, width int) (*countingnet.Network, error) {
	switch kind {
	case "bitonic":
		spec, _, err := countingnet.Bitonic(width)
		return spec, err
	case "periodic":
		spec, _, err := countingnet.Periodic(width, countingnet.BlockTopBottom)
		return spec, err
	case "tree":
		return countingnet.Tree(width)
	default:
		return nil, fmt.Errorf("unknown network %q (want bitonic, periodic or tree)", kind)
	}
}

// run builds the network, starts the serving endpoints and blocks until
// ctx is done or o.duration elapses, then drains and reports. Split from
// main so tests drive the whole daemon in-process.
func run(ctx context.Context, o options, out io.Writer) error {
	spec, err := buildSpec(o.kind, o.width)
	if err != nil {
		return err
	}
	if o.cpuprof != "" {
		f, err := os.Create(o.cpuprof)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	mode, err := countingnet.ParseConsistencyMode(o.mode)
	if err != nil {
		return err
	}
	// The backend is either the compiled network (standalone) or the
	// cluster node's block minter: in cluster mode ids come from
	// epoch-fenced grants, so compiling a counting network would only
	// build machinery nothing traverses.
	var (
		backend countingnet.ServerBackend
		col     *countingnet.TelemetryCollector
		node    *cluster.Node
	)
	clStats := cluster.NewStats()
	if o.clListen != "" {
		node, err = cluster.Start(cluster.Config{
			NodeID: o.nodeID,
			Addr:   o.clListen,
			Seeds:  splitAddrs(o.join),
			Width:  o.width,
			Stats:  clStats,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(out, format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		// Registered before srv's defer, so it runs after it: the server
		// drains in-flight LIN forwards before the node hands its unminted
		// blocks back to the cluster.
		defer node.Close()
		backend = node.Minter()
	} else {
		ctr, err := countingnet.Compile(spec)
		if err != nil {
			return err
		}
		// Balancer-level telemetry feeds the same /metrics surface countmon
		// serves; the server's own stats ride along as an extra section. The
		// observer costs atomics on every balancer visit, so it is attached
		// only when the telemetry endpoint is actually on.
		if o.telem != "" {
			col = countingnet.NewTelemetryCollectorFor(spec)
			ctr.SetObserver(col)
		}
		backend = ctr
	}
	// Flight recorder: an explicit -flight capacity, or a default when
	// server-side sampling is on. A nil recorder is inert, so the serving
	// path stays on its zero-cost branch with tracing off.
	flCap := o.flight
	if flCap == 0 && o.sample > 0 {
		flCap = 4096
	}
	rec := countingnet.NewFlightRecorder(flCap)
	stats := countingnet.NewServerStats(0)
	sopt := countingnet.ServerOptions{
		Mailbox:     o.mailbox,
		BatchLimit:  o.batch,
		OpTimeout:   o.opTime,
		Flush:       countingnet.ServerFlushPolicy{MaxDelay: o.flushDur, MaxBytes: o.flushBy},
		Stats:       stats,
		ForceLIN:    mode == countingnet.ModeLIN,
		Flight:      rec,
		TraceSample: o.sample,
		UDPSockets:  o.udpSocks,
		UDPBatch:    o.udpBatch,
		UDPPortable: o.udpPort,
		UDPGSO:      o.udpGSO,
	}
	if node != nil {
		sopt.LIN = node.LIN()
		sopt.NodeInfo = node.Advertise
	}
	srv := countingnet.NewServer(backend, sopt)
	defer srv.Close()

	// -flight-out turns the recorder into a black box on disk: each
	// anomaly burst rewrites the dump (rate-limited so an anomaly storm
	// cannot turn into an I/O storm), and exit writes the final state.
	if o.flOut != "" && rec != nil {
		dump := func() {
			f, err := os.Create(o.flOut)
			if err != nil {
				return
			}
			snap, _ := json.Marshal(stats.Snapshot())
			_ = rec.WriteDump(f, snap)
			_ = f.Close()
		}
		var lastDump atomic.Int64
		rec.SetSink(func(string) {
			now := time.Now().UnixNano()
			last := lastDump.Load()
			if now-last < int64(2*time.Second) || !lastDump.CompareAndSwap(last, now) {
				return
			}
			dump()
		})
		defer dump()
	}

	addr, err := srv.Listen(o.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "countd: %s width %d, mode %s, serving %s\n", o.kind, o.width, o.mode, addr)
	if node != nil {
		fmt.Fprintf(out, "countd: cluster node %d on %s, %d seed(s)\n",
			o.nodeID, o.clListen, len(splitAddrs(o.join)))
	}
	if o.udp != "" {
		ua, err := srv.ListenPacket(o.udp)
		if err != nil {
			return err
		}
		gso := "off"
		if stats.Snapshot().GSOActive != 0 {
			gso = "on"
		}
		fmt.Fprintf(out, "countd: udp endpoint %s (fire-and-forget SC, gso %s)\n", ua, gso)
	}
	if o.telem != "" {
		ln, err := net.Listen("tcp", o.telem)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		extras := []func(io.Writer){stats.AppendMetrics}
		if node != nil {
			extras = append(extras, node.AppendMetrics)
		}
		mux.Handle("/", countingnet.TelemetryHandler(col, nil, extras...))
		if rec != nil {
			mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				snap, _ := json.Marshal(stats.Snapshot())
				_ = rec.WriteDump(w, snap)
			})
		}
		hsrv := &http.Server{Handler: mux}
		defer hsrv.Close()
		go hsrv.Serve(ln)
		fmt.Fprintf(out, "countd: telemetry http://%s/metrics\n", ln.Addr())
		if rec != nil {
			how := "client-traced requests only"
			if o.sample > 0 {
				how = fmt.Sprintf("sampling 1 in %d", o.sample)
			}
			fmt.Fprintf(out, "countd: flight recorder http://%s/debug/flight (%s)\n", ln.Addr(), how)
		}
	}

	if o.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.duration)
		defer cancel()
	}
	<-ctx.Done()

	if err := srv.Close(); err != nil {
		return err
	}
	if node != nil {
		// After the server drained: in-flight LIN forwards are answered, so
		// the node can hand its unminted blocks back to the cluster.
		if err := node.Close(); err != nil {
			return err
		}
	}
	snap := stats.Snapshot()
	fmt.Fprintf(out, "countd: drained; issued %d (sc %d, lin %d), %d conns, coalescing factor %.1f\n",
		srv.Issued(), snap.SCOps, snap.LINOps, snap.ConnsTotal, snap.CoalescingFactor())
	if node != nil {
		cs := clStats.Snapshot()
		fmt.Fprintf(out, "countd: cluster node %d epoch %d: %d grants, %d forwards, %d served, %d elections\n",
			node.ID(), node.Epoch(), cs.Grants, cs.LinForwards, cs.LinServed, cs.Elections)
	}
	return nil
}

// splitAddrs parses the -join list.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
