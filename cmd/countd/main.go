// Command countd serves a compiled counting network over the wire
// protocol — the daemon form of the repository. It compiles a network,
// wraps it in the coalescing server (internal/server), and listens on
// TCP for framed Inc/IncBatch/Read requests, each carrying its
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
//	            /debug/countingnet, /debug/flight, /heatmap (the
//	            per-layer balancer traffic; standalone only) and pprof
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
// Clustering: -node-id starts the cluster half (internal/cluster) and
// serves the daemon as one node of a multi-machine logical counter. The
// node opens no second listener: its peers reach it at its -listen
// address, whose door answers their gossip and grant requests beside
// client traffic, and it calls each peer on one pipelined connection.
// It gossips membership with the -join seeds (serving addresses, named
// as each node's -listen names itself), mints SC increments from
// epoch-fenced id blocks owned locally (zero cross-node RPCs on the SC
// hot path), and mints each LIN sweep as one grant of exactly its k from
// the elected leader's frontier, its serialization point, so the remote
// step property holds cluster-wide.
// -node-id must be unique per node. In cluster mode the network flags
// (-net, -w) only shape the advertised wire fan; ids come from the
// cluster's block allocator, not a compiled network.
//
//	countd -listen 127.0.0.1:9701 -node-id 1 \
//	       -join 127.0.0.1:9701,127.0.0.1:9702,127.0.0.1:9703
//
// With -duration 0 countd serves until interrupted (SIGINT drains in
// flight requests and closes connections cleanly); a positive -duration
// runs that long and exits, which is how the CI smoke job uses it.
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

	"repro/internal/cluster"
	"repro/internal/construct"
	"repro/internal/flightrec"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

type options struct {
	kind     string        // network construction: bitonic, periodic or tree
	width    int           // network fan (power of two)
	listen   string        // TCP service address
	udp      string        // UDP datagram address ("" disables)
	telem    string        // telemetry HTTP address ("" disables)
	mode     string        // default consistency: sc or lin (serve every increment as LIN)
	udpSocks int           // SO_REUSEPORT socket count for -udp (0: server default)
	udpGSO   bool          // UDP GSO/GRO segmentation offload (auto-falls back)
	duration time.Duration // run length (0: serve until interrupted)
	cpuprof  string        // write a CPU profile here ("" disables)
	sample   int           // server-side trace sampling: 1 in N untraced requests (0: off)
	flight   int           // flight-recorder span capacity (0: off unless -trace-sample)
	flOut    string        // dump the black box here on anomalies and at exit ("" disables)

	join   string // comma-separated cluster seed addresses to gossip with
	nodeID uint64 // cluster node id, unique per node (0: standalone daemon)
}

// flags registers every countd flag on fs, bound to o's fields.
func flags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.kind, "net", "bitonic", "network: bitonic, periodic or tree")
	fs.IntVar(&o.width, "w", 8, "network fan (power of two)")
	fs.StringVar(&o.listen, "listen", ":9701", "TCP service address")
	fs.StringVar(&o.udp, "udp", "", "UDP datagram address for fire-and-forget SC increments (empty: off)")
	fs.IntVar(&o.udpSocks, "udp-sockets", 0, "UDP sockets sharing the port via SO_REUSEPORT, one batched read loop each (0: default, min(GOMAXPROCS,4) on Linux)")
	fs.BoolVar(&o.udpGSO, "udp-gso", true, "UDP GSO/GRO segmentation offload on the -udp endpoint; falls back to the plain batched path when the kernel lacks UDP_SEGMENT/UDP_GRO")
	fs.StringVar(&o.telem, "telemetry", "", "HTTP telemetry address (empty: off)")
	fs.StringVar(&o.mode, "mode", "sc", "default consistency: sc, or lin to serve every increment as LIN (in a cluster, each LIN sweep is one grant from the leader)")
	fs.DurationVar(&o.duration, "duration", 0, "run length (0: serve until interrupted)")
	fs.StringVar(&o.cpuprof, "cpuprofile", "", "write a CPU profile to this file (empty: off)")
	fs.IntVar(&o.sample, "trace-sample", 0, "sample 1 in N untraced requests into the flight recorder with a server-minted trace id (0: off; client-traced requests always record)")
	fs.IntVar(&o.flight, "flight", 0, "flight recorder span capacity; serves /debug/flight on the telemetry endpoint (0: off, or 4096 when -trace-sample is set)")
	fs.StringVar(&o.flOut, "flight-out", "", "write the flight recorder's black box to this file on each anomaly burst and at exit (empty: off)")
	fs.StringVar(&o.join, "join", "", "comma-separated serving addresses of the cluster's nodes to gossip with (this node's own -listen may be included)")
	fs.Uint64Var(&o.nodeID, "node-id", 0, "cluster node id, unique across the cluster; >= 1 joins this daemon to a multi-node counting cluster, advertised at -listen (0: standalone)")
}

func main() {
	var o options
	flags(flag.CommandLine, &o)
	flag.Parse()

	if o.nodeID == 0 && o.join != "" {
		fmt.Fprintln(os.Stderr, "countd: -join needs -node-id >= 1 (id 0 is the wire's no-node sentinel)")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "countd:", err)
		os.Exit(1)
	}
}

// buildSpec constructs the requested network specification.
func buildSpec(kind string, width int) (*network.Network, error) {
	switch kind {
	case "bitonic":
		spec, _, err := construct.Bitonic(width)
		return spec, err
	case "periodic":
		spec, _, err := construct.Periodic(width, construct.BlockTopBottom)
		return spec, err
	case "tree":
		return construct.Tree(width)
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
	mode, err := wire.ParseMode(o.mode)
	if err != nil {
		return err
	}
	// The backend is either the compiled network (standalone) or the
	// cluster node's block minter: in cluster mode ids come from
	// epoch-fenced grants, so compiling a counting network would only
	// build machinery nothing traverses.
	var (
		backend server.Backend
		col     *telemetry.Collector
		node    *cluster.Node
	)
	clStats := cluster.NewStats()
	if o.nodeID != 0 {
		node, err = cluster.Start(cluster.Config{
			NodeID: o.nodeID,
			Addr:   o.listen,
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
		// drains in-flight LIN grants before the node closes its peer
		// clients.
		defer node.Close()
		backend = node.Minter()
	} else {
		ctr, err := runtime.Compile(spec)
		if err != nil {
			return err
		}
		// Balancer-level telemetry feeds /metrics and /heatmap; the
		// server's own stats ride along as an extra section. The observer
		// costs atomics on every balancer visit, so it is attached only
		// when the telemetry endpoint is actually on.
		if o.telem != "" {
			col = telemetry.NewCollectorFor(spec)
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
	rec := flightrec.New(flCap)
	stats := server.NewStats(0)
	sopt := server.Options{
		Stats:       stats,
		ForceLIN:    mode == wire.ModeLIN,
		Flight:      rec,
		TraceSample: o.sample,
		UDPSockets:  o.udpSocks,
		UDPGSO:      o.udpGSO,
	}
	if node != nil {
		sopt.LIN = node
	}
	srv := server.New(backend, sopt)
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
			o.nodeID, o.listen, len(splitAddrs(o.join)))
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
		mux.Handle("/", telemetry.Handler(col, nil, extras...))
		if rec != nil {
			mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				snap, _ := json.Marshal(stats.Snapshot())
				_ = rec.WriteDump(w, snap)
			})
		}
		// A cluster node mints from id blocks and traverses no network,
		// so it has no collector and /heatmap falls through to a 404.
		if col != nil {
			mux.HandleFunc("/heatmap", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				fmt.Fprintln(w, telemetry.Heatmap(spec, col.Snapshot().Toggles))
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
		// After the server drained: in-flight LIN grants are answered
		// before the node closes its peer clients. Its unminted ids burn.
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
