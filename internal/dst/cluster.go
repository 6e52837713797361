package dst

import (
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/wire"
)

// Cluster scenarios run N whole daemons — each a server.Server over a
// cluster.Minter plus a cluster.Node — inside one simulated universe:
// gossip, elections, range grants (SC blocks and LIN sweeps), client
// failover, node kills, rolling restarts and partitions all on the
// virtual clock. The generator is deliberately separate from GenScenario
// so the cluster flavor's existence cannot shift any existing seed's
// expansion (the single-server traces stay byte-identical).
//
// The flavor runs on the shared harness: RunClusterScenario boots the
// nodes and supplies the chaos actor, dials each worker a
// *client.Cluster, and audits with checkClusterInvariants.

// ClusterEvent is one planned chaos action against a node.
type ClusterEvent struct {
	At   time.Duration // offset from the workload start
	Kind string        // "kill" (crash), "leave" (graceful shutdown) or "restart"
	Node int           // node index in [0, Nodes)
}

// ClusterScenario is one multi-daemon universe: cluster size and tuning,
// per-worker op plans, and the chaos schedule (events + partitions).
type ClusterScenario struct {
	Seed    uint64
	Flavor  string
	Nodes   int
	Workers int
	LinFrac int
	Plans   [][]opSpec

	Events     []ClusterEvent
	Partitions []Partition

	GossipEvery time.Duration // base period; node i adds i*1009ns so ticks never tie
	RPCTimeout  time.Duration
	BlockSize   int64

	JitterMin, JitterMax time.Duration
	Retries              int
	OpTimeout            time.Duration
	DialTimeout          time.Duration
	BackoffBase          time.Duration
	BackoffCap           time.Duration
}

// CleanRun reports whether the scenario injects no adversity at all.
func (sc *ClusterScenario) CleanRun() bool {
	return len(sc.Events) == 0 && len(sc.Partitions) == 0
}

// Header renders the scenario as deterministic trace-header lines.
func (sc *ClusterScenario) Header() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# cluster seed=%d flavor=%s nodes=%d workers=%d linfrac=%d\n",
		sc.Seed, sc.Flavor, sc.Nodes, sc.Workers, sc.LinFrac)
	fmt.Fprintf(&b, "# gossip=%d rpct=%d block=%d jitter=[%d,%d] retries=%d opt=%d dialt=%d backoff=[%d,%d]\n",
		sc.GossipEvery.Nanoseconds(), sc.RPCTimeout.Nanoseconds(), sc.BlockSize,
		sc.JitterMin.Nanoseconds(), sc.JitterMax.Nanoseconds(), sc.Retries,
		sc.OpTimeout.Nanoseconds(), sc.DialTimeout.Nanoseconds(),
		sc.BackoffBase.Nanoseconds(), sc.BackoffCap.Nanoseconds())
	for _, ev := range sc.Events {
		fmt.Fprintf(&b, "# event %s n%d at=%d\n", ev.Kind, ev.Node, ev.At.Nanoseconds())
	}
	for _, p := range sc.Partitions {
		fmt.Fprintf(&b, "# partition %d %d\n", p.Start.Nanoseconds(), p.End.Nanoseconds())
	}
	writePlans(&b, sc.Plans)
	return b.String()
}

// GenClusterScenario expands a seed into a cluster scenario. Flavors:
//
//	cluster-clean      stable cluster, no adversity; strict audits apply
//	cluster-kill       one node crashes mid-run (burning its blocks) and
//	                   rejoins with a fresh incarnation
//	cluster-partition  a global black-hole window stalls gossip and
//	                   client traffic; the leader lease must lapse and heal
//	cluster-rolling    followers leave gracefully (their unminted blocks
//	                   burn, as a crash's do) and restart, one at a time
func GenClusterScenario(seed uint64) ClusterScenario {
	r := func(k, a uint64) uint64 { return mix3(seed, k, a, 0xc1) }

	sc := ClusterScenario{Seed: seed}
	sc.Nodes = 3 + 2*int(r(0x02, 0)%2) // 3 or 5
	sc.Workers = 2 + int(r(0x03, 0)%4) // 2..5
	switch pct := r(0x01, 0) % 100; {
	case pct < 40:
		sc.Flavor = "cluster-clean"
	case pct < 65:
		sc.Flavor = "cluster-kill"
	case pct < 85:
		sc.Flavor = "cluster-partition"
	default:
		sc.Flavor = "cluster-rolling"
	}

	sc.GossipEvery = 10*time.Millisecond + time.Duration(r(0x04, 0)%6)*time.Millisecond
	sc.RPCTimeout = 250 * time.Millisecond
	sc.BlockSize = 512
	sc.JitterMin = 20 * time.Microsecond
	sc.JitterMax = sc.JitterMin + time.Duration(r(0x05, 0)%10)*25*time.Microsecond
	sc.Retries = 2 + int(r(0x06, 0)%3)
	sc.BackoffBase = time.Duration(1+r(0x07, 0)%2) * time.Millisecond
	sc.BackoffCap = 8 * sc.BackoffBase
	sc.DialTimeout = time.Second
	// Per-attempt budget: dial (<=5 grid cells) + both legs' jitter, plus
	// the LIN grant's own dial and round trip, plus leader-mutex queuing
	// behind every other worker.
	sc.OpTimeout = 9*sc.JitterMax + 40*grid + 3*time.Millisecond +
		time.Duration(sc.Workers)*2*grid
	sc.LinFrac = []int{0, 30, 100}[r(0x08, 0)%3]

	sc.Plans = make([][]opSpec, sc.Workers)
	for w := 0; w < sc.Workers; w++ {
		n := 10 + int(r(0x10, uint64(w))%16)
		plan := make([]opSpec, n)
		for i := range plan {
			d := func(k uint64) uint64 { return mix3(seed, k, uint64(w)<<16|uint64(i), 0xc1) }
			op := opSpec{
				Wire: int(d(0x11) % 8),
				K:    1,
				// Millisecond-scale thinking stretches the workload across
				// the gossip/election timescale so chaos lands mid-run; the
				// w*1009+i*13 ns term keeps op wake instants collision-free.
				Think: 2*time.Millisecond + time.Duration(d(0x12)%5)*time.Millisecond +
					time.Duration(w*1009+i*13)*time.Nanosecond,
			}
			if d(0x13)%10 < 3 {
				op.Kind = OpBatch
				op.K = 2 + int(d(0x14)%4)
			}
			if d(0x15)%100 < uint64(sc.LinFrac) {
				op.Mode = wire.ModeLIN
			}
			plan[i] = op
		}
		sc.Plans[w] = plan
	}

	switch sc.Flavor {
	case "cluster-kill":
		v := int(r(0x20, 0) % uint64(sc.Nodes)) // any node — sometimes the leader
		tk := 60*time.Millisecond + time.Duration(r(0x21, 0)%80)*time.Millisecond
		back := tk + 60*time.Millisecond + time.Duration(r(0x22, 0)%60)*time.Millisecond
		sc.Events = []ClusterEvent{{At: tk, Kind: "kill", Node: v}, {At: back, Kind: "restart", Node: v}}
	case "cluster-partition":
		ps := 50*time.Millisecond + time.Duration(r(0x23, 0)%80)*time.Millisecond
		pl := 40*time.Millisecond + time.Duration(r(0x24, 0)%80)*time.Millisecond
		sc.Partitions = []Partition{{Start: ps, End: ps + pl}}
	case "cluster-rolling":
		t := 60 * time.Millisecond
		for j := 1; j < sc.Nodes && j <= 2; j++ {
			sc.Events = append(sc.Events,
				ClusterEvent{At: t, Kind: "leave", Node: j},
				ClusterEvent{At: t + 90*time.Millisecond, Kind: "restart", Node: j})
			t += 220 * time.Millisecond
		}
	}
	return sc
}

// ClusterNodeReport is one node incarnation's end-of-run accounting.
type ClusterNodeReport struct {
	Node   int // node index
	Gen    int // incarnation ordinal (restarts increment it)
	Issued int64
	Epoch  uint64
	Stats  cluster.Snapshot
}

// ClusterResult is one cluster run's full outcome: the shared Outcome
// (Issued sums every incarnation's server) plus the per-incarnation
// accounting.
type ClusterResult struct {
	Outcome
	Scenario ClusterScenario
	Nodes    []ClusterNodeReport
	Granted  int64 // ids covered by audited grants (grants never overlap)
}

// RunCluster executes one cluster seed end to end.
func RunCluster(seed uint64) (*ClusterResult, error) {
	return RunClusterScenario(GenClusterScenario(seed))
}

// simNode is one daemon incarnation inside the simulated universe.
type simNode struct {
	idx   int // node index
	gen   int // incarnation ordinal
	nd    *cluster.Node
	srv   *server.Server
	stats *cluster.Stats
	alive bool
}

// leave shuts the incarnation down gracefully: drain the serving half
// (in-flight LIN grants resolve), then close the cluster half, whose
// unminted ids burn.
func (n *simNode) leave() {
	_ = n.srv.Close()
	_ = n.nd.Close()
	n.alive = false
}

func clusterSrvAddr(i int) string { return fmt.Sprintf("sim-node-%d", i) }

// startSimNode boots node index i (incarnation gen) into the world: the
// cluster half and the server whose door it answers its peers through,
// wired together exactly as cmd/countd wires them.
//
// Worker-id lanes: every actor that sleeps in World.Dialer needs a
// sub-grid offset of its own (offset = 8192 + worker*16 ns). Cluster
// runs partition the id space:
//
//	[  0,  64)  client workers
//	[ 64,  96)  per-node peer lane: the dials of all its peer clients,
//	            one at a time
func startSimNode(w *World, sc *ClusterScenario, i, gen int, audit *cluster.Audit) (*simNode, error) {
	seeds := make([]string, sc.Nodes)
	for j := range seeds {
		seeds[j] = clusterSrvAddr(j)
	}
	// The gossip loop, the grant path and the LIN sweeper can each dial a
	// peer; holding the lane across the dial keeps its dial count and its
	// connects' completion instants in one order.
	var laneMu sync.Mutex
	dial := w.Dialer(64 + i)
	stats := cluster.NewStats()
	nd, err := cluster.Start(cluster.Config{
		NodeID:        uint64(i + 1),
		Addr:          clusterSrvAddr(i),
		Seeds:         seeds,
		ExpectedPeers: sc.Nodes,
		Clock:         w.Clk,
		// The per-node period offset keeps gossip timers from ever sharing
		// a deadline across nodes.
		GossipEvery: sc.GossipEvery + time.Duration(i)*1009*time.Nanosecond,
		RPCTimeout:  sc.RPCTimeout,
		Width:       8,
		BlockSize:   sc.BlockSize,
		PeerDialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			laneMu.Lock()
			defer laneMu.Unlock()
			return dial(addr, timeout)
		},
		Stats: stats,
		Audit: audit,
	})
	if err != nil {
		return nil, err
	}
	srv := server.New(nd.Minter(), server.Options{
		Clock: w.Clk,
		LIN:   nd,
	})
	go srv.Serve(w.Listen(clusterSrvAddr(i)))
	return &simNode{idx: i, gen: gen, nd: nd, srv: srv, stats: stats, alive: true}, nil
}

// RunClusterScenario executes an explicit cluster scenario: boot the
// nodes, step the world until a leader converges, drive the workload and
// chaos plan, shut everything down gracefully, then audit the
// cluster-wide invariants.
func RunClusterScenario(sc ClusterScenario) (*ClusterResult, error) {
	res := &ClusterResult{Outcome: Outcome{Seed: sc.Seed}, Scenario: sc}
	w := NewWorld(sc.Seed, sc.JitterMin, sc.JitterMax, sc.Partitions)
	s := &sim{w: w, out: &res.Outcome, maxSteps: maxClusterSteps}
	audit := cluster.NewAudit()

	// Boot, settling between nodes so timer arming order is fixed.
	live := make([]*simNode, sc.Nodes) // current incarnation per index (nil: down)
	var all []*simNode                 // every incarnation ever started
	gens := make([]int, sc.Nodes)      // next incarnation ordinal per index
	for i := 0; i < sc.Nodes; i++ {
		n, err := startSimNode(w, &sc, i, gens[i], audit)
		if err != nil {
			return nil, fmt.Errorf("dst: cluster node %d: %w", i, err)
		}
		gens[i]++
		live[i] = n
		all = append(all, n)
		w.Settle()
	}

	// Convergence: step until one node holds the lease and every live
	// node's view names a leader. Reads happen only between steps, after
	// Settle, when every goroutine is parked.
	converged := func() bool {
		leaders, ready, alive := 0, 0, 0
		for _, n := range live {
			if n == nil || !n.alive {
				continue
			}
			alive++
			if n.nd.IsLeader() {
				leaders++
			}
			if _, _, ok := n.nd.Leader(); ok {
				ready++
			}
		}
		return alive > 0 && leaders == 1 && ready == alive
	}
	s.drive(converged, 0, func() string { return "cluster: world empty before a leader converged" },
		"cluster: no leader within %d steps")
	w.note("L %d\n", w.Clk.Now().Sub(clock.SimEpoch).Nanoseconds())

	// Workload phase: client workers (cluster-aware, failing over across
	// every node, sticky start rotated by worker so traffic spreads) plus
	// the chaos actor, all planned on the virtual clock.
	dial := func(wk int) (simClient, error) {
		addrs := make([]string, sc.Nodes)
		for j := range addrs {
			addrs[j] = clusterSrvAddr((wk + j) % sc.Nodes)
		}
		return client.DialCluster(addrs, client.Options{
			Conns:       1,
			Retries:     sc.Retries,
			OpTimeout:   sc.OpTimeout,
			DialTimeout: sc.DialTimeout,
			Clock:       w.Clk,
			Dialer:      w.Dialer(wk),
			Backoff: &fault.Backoff{
				Base:  sc.BackoffBase,
				Cap:   sc.BackoffCap,
				Seed:  int64(wk) + 1,
				Clock: w.Clk,
			},
		})
	}
	start := w.Clk.Now()
	var chaos func()
	if len(sc.Events) > 0 {
		chaos = func() {
			for _, ev := range sc.Events {
				target := start.Add(ev.At)
				if dt := target.Sub(w.Clk.Now()); dt > 0 {
					w.Clk.Sleep(dt)
				}
				n := live[ev.Node]
				switch ev.Kind {
				case "kill":
					if n == nil || !n.alive {
						continue
					}
					// A crash: the cluster half dies first (unminted blocks
					// burn), then the serving half is torn down.
					_ = n.nd.Close()
					_ = n.srv.Close()
					n.alive = false
					live[ev.Node] = nil
				case "leave":
					if n == nil || !n.alive {
						continue
					}
					n.leave()
					live[ev.Node] = nil
				case "restart":
					if live[ev.Node] != nil {
						continue
					}
					nn, err := startSimNode(w, &sc, ev.Node, gens[ev.Node], audit)
					if err != nil {
						continue
					}
					gens[ev.Node]++
					live[ev.Node] = nn
					all = append(all, nn)
				}
			}
		}
	}
	s.workload(sc.Plans, 150*time.Microsecond, dial, chaos, "cluster actors")

	// Shutdown: servers and nodes close gracefully, in any order, since a
	// leaving node hands nothing back to the leader.
	s.drain(func() {
		for _, n := range live {
			if n != nil && n.alive {
				n.leave()
			}
		}
	}, "cluster shutdown")

	for _, n := range all {
		rep := ClusterNodeReport{Node: n.idx, Gen: n.gen, Issued: n.srv.Issued(),
			Epoch: n.nd.Epoch(), Stats: n.stats.Snapshot()}
		res.Nodes = append(res.Nodes, rep)
		res.Issued += rep.Issued
	}
	for _, g := range audit.Grants() {
		res.Granted += g.R.Count
	}
	checkClusterInvariants(res, w, audit)
	res.Trace = buildClusterTrace(res, w)
	return res, nil
}

// checkClusterInvariants audits one finished cluster run.
func checkClusterInvariants(res *ClusterResult, w *World, audit *cluster.Audit) {
	sc := &res.Scenario
	adversity := !sc.CleanRun()

	// No id is ever delivered twice, cluster-wide — the heart of the
	// epoch-fencing argument — and cluster-wide F_nl = 0: within an epoch
	// the leader mints LIN from a strictly increasing frontier; across
	// elections the new epoch's stripe starts above the old one's, and
	// the lease ordering (a lease of 4×GossipEvery lapses before the
	// 8×GossipEvery suspicion that lets a successor stand) forbids
	// old-leader mints after the new leader starts. Ids are striped by
	// epoch, not dense from 0, so the range check is the grant coverage
	// below. LIN keeps session order (a LIN sweep is a fresh frontier
	// grant, above every value already handed out); SC session order is
	// counted in res.Audit, not enforced.
	delivered, violations := auditOps(&res.Outcome, w, adversity, true, math.MaxInt64)
	res.Violations = append(res.Violations, violations...)
	res.Delivered = len(delivered)

	// Every grant stays inside its epoch's stripe, no two grants overlap
	// (the allocator only bumps its frontier, and no id is granted twice),
	// and every delivered id lies inside an audited grant.
	grants := audit.Grants()
	for _, g := range grants {
		base, limit := cluster.StripeBase(g.Epoch), cluster.StripeBase(g.Epoch)+cluster.StripeSize
		if g.R.First < base || g.R.First+g.R.Count > limit {
			res.Violations = append(res.Violations,
				fmt.Sprintf("grant %+v escapes epoch %d stripe", g.R, g.Epoch))
		}
	}
	sort.Slice(grants, func(i, j int) bool { return grants[i].R.First < grants[j].R.First })
	for i := 1; i < len(grants); i++ {
		if p, g := grants[i-1], grants[i]; g.R.First < p.R.First+p.R.Count {
			res.Violations = append(res.Violations,
				fmt.Sprintf("grant %+v to node %d overlaps grant %+v to node %d", g.R, g.To, p.R, p.To))
		}
	}
	covered := func(v int64) bool {
		i := sort.Search(len(grants), func(i int) bool { return grants[i].R.First > v }) - 1
		return i >= 0 && v < grants[i].R.First+grants[i].R.Count
	}
	for _, v := range delivered {
		if !covered(v) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("delivered id %d outside every audited grant", v))
		}
	}

	// Burn, never mint: callers cannot observe more ids than the servers
	// issued, and servers cannot issue more than the leaders granted.
	if int64(res.Delivered) > res.Issued {
		res.Violations = append(res.Violations,
			fmt.Sprintf("delivered %d ids but servers issued only %d", res.Delivered, res.Issued))
	}
	if res.Issued > res.Granted {
		res.Violations = append(res.Violations,
			fmt.Sprintf("issued %d ids but only %d were ever granted", res.Issued, res.Granted))
	}

	// On a clean run nothing burns: every issued id reaches a caller.
	if !adversity && int64(res.Delivered) != res.Issued {
		res.Violations = append(res.Violations,
			fmt.Sprintf("clean cluster run delivered %d ids, issued %d", res.Delivered, res.Issued))
	}

	// Transport audit for the SC hot path: with a healthy cluster, SC
	// increments are node-local — no forwards, no sheds, and at most the
	// one unavoidable blocking refill per node (every later block arrives
	// by prefetch, off the minting path).
	if !adversity {
		tot := nodeTotals(res.Nodes)
		if sc.LinFrac == 0 && (tot.LinForwards != 0 || tot.LinServed != 0) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("SC-only clean run performed %d LIN forwards, %d LIN serves — SC must stay node-local", tot.LinForwards, tot.LinServed))
		}
		if tot.NoRange != 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("clean cluster run shed %d mints with no_range", tot.NoRange))
		}
		if tot.RefillBlocking > uint64(sc.Nodes) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%d blocking refills on a clean run (at most one first-fill per node, %d nodes) — prefetch fell behind", tot.RefillBlocking, sc.Nodes))
		}
	}
}

// buildClusterTrace assembles the cluster trace: the shared body, then
// the per-incarnation accounting and the footer.
func buildClusterTrace(res *ClusterResult, w *World) []byte {
	return traceOf(res.Scenario.Header(), w, &res.Outcome, func(b *strings.Builder) {
		for _, rep := range res.Nodes {
			st := rep.Stats
			fmt.Fprintf(b, "S n%d g%d issued=%d epoch=%d grants=%d reqs=%d fwd=%d served=%d refill=%d norange=%d notleader=%d elections=%d\n",
				rep.Node, rep.Gen, rep.Issued, rep.Epoch, st.Grants, st.RangeRequests,
				st.LinForwards, st.LinServed, st.RefillBlocking, st.NoRange, st.NotLeader,
				st.Elections)
		}
		fmt.Fprintf(b, "# cluster granted=%d issued=%d delivered=%d burned=%d steps=%d violations=%d\n",
			res.Granted, res.Issued, res.Delivered, res.Granted-res.Issued, res.Steps, len(res.Violations))
	})
}
