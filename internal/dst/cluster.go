package dst

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync/atomic"
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
// gossip, elections, range grants, LIN forwards, client failover, node
// kills, rolling restarts and partitions all on the virtual clock. The
// generator is deliberately separate from GenScenario so the cluster
// flavor's existence cannot shift any existing seed's expansion (the
// single-server traces and the -bug canary stay byte-identical).
//
// Worker-id lanes: every actor that sleeps in World.Dialer needs a
// sub-grid offset of its own (offset = 8192 + worker*16 ns). Cluster
// runs partition the id space:
//
//	[  0,  64)  client workers
//	[ 64,  96)  per-node gossip lane
//	[ 96, 128)  per-node range-grant lane (refill + prefetch, serialized)
//	[128, 160)  per-node LIN forward lane (the server's one LIN sweeper)
type ClusterEvent struct {
	At   time.Duration // offset from the workload start
	Kind string        // "kill" (burn), "leave" (graceful handoff) or "restart"
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
	LINBlock    int64

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
	fmt.Fprintf(&b, "# gossip=%d rpct=%d block=%d linblock=%d jitter=[%d,%d] retries=%d opt=%d dialt=%d backoff=[%d,%d]\n",
		sc.GossipEvery.Nanoseconds(), sc.RPCTimeout.Nanoseconds(), sc.BlockSize, sc.LINBlock,
		sc.JitterMin.Nanoseconds(), sc.JitterMax.Nanoseconds(), sc.Retries,
		sc.OpTimeout.Nanoseconds(), sc.DialTimeout.Nanoseconds(),
		sc.BackoffBase.Nanoseconds(), sc.BackoffCap.Nanoseconds())
	for _, ev := range sc.Events {
		fmt.Fprintf(&b, "# event %s n%d at=%d\n", ev.Kind, ev.Node, ev.At.Nanoseconds())
	}
	for _, p := range sc.Partitions {
		fmt.Fprintf(&b, "# partition %d %d\n", p.Start.Nanoseconds(), p.End.Nanoseconds())
	}
	for w, plan := range sc.Plans {
		fmt.Fprintf(&b, "# plan w%d:", w)
		for _, op := range plan {
			mode := "sc"
			if op.Mode == wire.ModeLIN {
				mode = "lin"
			}
			fmt.Fprintf(&b, " %s/%s/w%d/k%d/t%d", op.Kind, mode, op.Wire, op.K, op.Think.Nanoseconds())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// GenClusterScenario expands a seed into a cluster scenario. Flavors:
//
//	cluster-clean      stable cluster, no adversity; strict audits apply
//	cluster-kill       one node crashes mid-run (burning its blocks) and
//	                   rejoins with a fresh incarnation
//	cluster-partition  a global black-hole window stalls gossip and
//	                   client traffic; the leader lease must lapse and heal
//	cluster-rolling    followers leave gracefully (epoch-checked handoff)
//	                   and restart, one at a time
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
	sc.LINBlock = 32
	sc.JitterMin = 20 * time.Microsecond
	sc.JitterMax = sc.JitterMin + time.Duration(r(0x05, 0)%10)*25*time.Microsecond
	sc.Retries = 2 + int(r(0x06, 0)%3)
	sc.BackoffBase = time.Duration(1+r(0x07, 0)%2) * time.Millisecond
	sc.BackoffCap = 8 * sc.BackoffBase
	sc.DialTimeout = time.Second
	// Per-attempt budget: dial (<=5 grid cells) + both legs' jitter, plus
	// the LIN forward's own dial and round trip, plus leader-mutex queuing
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

// ClusterResult is one cluster run's full outcome.
type ClusterResult struct {
	Seed       uint64
	Scenario   ClusterScenario
	Ops        []OpRecord
	Violations []string
	Trace      []byte
	Nodes      []ClusterNodeReport
	Issued     int64 // sum over every incarnation's server
	Granted    int64 // unique ids covered by audited grants
	Delivered  int
	Steps      int
}

// Failed reports whether any invariant was violated.
func (r *ClusterResult) Failed() bool { return len(r.Violations) > 0 }

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

func clusterSrvAddr(i int) string  { return fmt.Sprintf("sim-node-%d", i) }
func clusterPeerAddr(i int) string { return fmt.Sprintf("sim-cluster-%d", i) }

// startSimNode boots node index i (incarnation gen) into the world:
// the cluster half on its peer address, the serving half on its client
// address, wired together exactly as cmd/countd wires them.
func startSimNode(w *World, sc *ClusterScenario, i, gen int, audit *cluster.Audit) (*simNode, error) {
	seeds := make([]string, sc.Nodes)
	for j := range seeds {
		seeds[j] = clusterPeerAddr(j)
	}
	stats := cluster.NewStats()
	nd, err := cluster.Start(cluster.Config{
		NodeID:        uint64(i + 1),
		Addr:          clusterPeerAddr(i),
		Seeds:         seeds,
		ExpectedPeers: sc.Nodes,
		Clock:         w.Clk,
		// The per-node period offset keeps gossip timers from ever sharing
		// a deadline across nodes.
		GossipEvery: sc.GossipEvery + time.Duration(i)*1009*time.Nanosecond,
		RPCTimeout:  sc.RPCTimeout,
		Width:       8,
		BlockSize:   sc.BlockSize,
		LINBlock:    sc.LINBlock,
		Listen:      func(addr string) (net.Listener, error) { return w.Listen(addr), nil },
		Dial: func(lane cluster.Lane) cluster.Dialer {
			var worker int
			switch lane {
			case cluster.LaneGossip:
				worker = 64 + i
			case cluster.LaneRange:
				worker = 96 + i
			default:
				worker = 128 + i
			}
			d := w.Dialer(worker)
			return func(addr string) (net.Conn, error) { return d(addr, 0) }
		},
		Stats: stats,
		Audit: audit,
	})
	if err != nil {
		return nil, err
	}
	srv := server.New(nd.Minter(), server.Options{
		Clock:    w.Clk,
		LIN:      nd.LIN(),
		NodeInfo: nd.Advertise,
	})
	go srv.Serve(w.Listen(clusterSrvAddr(i)))
	return &simNode{idx: i, gen: gen, nd: nd, srv: srv, stats: stats, alive: true}, nil
}

// RunClusterScenario executes an explicit cluster scenario: boot the
// nodes, step the world until a leader converges, drive the workload and
// chaos plan, shut everything down gracefully, then audit the
// cluster-wide invariants.
func RunClusterScenario(sc ClusterScenario) (*ClusterResult, error) {
	res := &ClusterResult{Seed: sc.Seed, Scenario: sc}
	const maxSteps = 200000

	w := NewWorld(sc.Seed, sc.JitterMin, sc.JitterMax, sc.Partitions, 0)
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
	for !converged() {
		w.Settle()
		if converged() {
			break
		}
		if !w.step() {
			res.Violations = append(res.Violations, "cluster: world empty before a leader converged")
			break
		}
		if res.Steps++; res.Steps > maxSteps {
			res.Violations = append(res.Violations, fmt.Sprintf("cluster: no leader within %d steps", maxSteps))
			break
		}
	}
	w.note("L %d\n", w.Clk.Now().Sub(clock.SimEpoch).Nanoseconds())

	// Workload phase: client workers (cluster-aware, failing over across
	// every node) plus the chaos actor, all planned on the virtual clock.
	recs := make([][]OpRecord, sc.Workers)
	var remaining atomic.Int64
	remaining.Store(int64(sc.Workers))
	start := w.Clk.Now()
	for wk := 0; wk < sc.Workers; wk++ {
		recs[wk] = make([]OpRecord, len(sc.Plans[wk]))
		go runClusterWorker(w, &sc, wk, recs[wk], &remaining)
	}
	if len(sc.Events) > 0 {
		remaining.Add(1)
		go func() {
			defer remaining.Add(-1)
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
					_ = n.nd.Kill()
					_ = n.srv.Close()
					n.alive = false
					live[ev.Node] = nil
				case "leave":
					if n == nil || !n.alive {
						continue
					}
					// Graceful: drain the serving half (in-flight LIN
					// forwards resolve), then hand remainders to the leader.
					_ = n.srv.Close()
					_ = n.nd.Close()
					n.alive = false
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
		}()
	}

	stuck := 0
	for remaining.Load() > 0 {
		w.Settle()
		if remaining.Load() <= 0 {
			break
		}
		if !w.step() {
			if stuck++; stuck > 40 {
				res.Violations = append(res.Violations,
					fmt.Sprintf("deadlock: %d cluster actors stuck with no pending event or timer", remaining.Load()))
				break
			}
			continue
		}
		stuck = 0
		if res.Steps++; res.Steps > maxSteps {
			res.Violations = append(res.Violations, fmt.Sprintf("runaway: exceeded %d scheduler steps", maxSteps))
			break
		}
	}

	// Shutdown: servers and nodes close gracefully, followers before the
	// leader so every handoff still has a reclaimer to land on.
	w.note("C %d\n", w.Clk.Now().Sub(clock.SimEpoch).Nanoseconds())
	shutDone := make(chan struct{})
	go func() {
		defer close(shutDone)
		leaderIdx := -1
		for i, n := range live {
			if n != nil && n.alive && n.nd.IsLeader() {
				leaderIdx = i
			}
		}
		closeOne := func(n *simNode) {
			_ = n.srv.Close()
			_ = n.nd.Close()
			n.alive = false
		}
		for i, n := range live {
			if n != nil && n.alive && i != leaderIdx {
				closeOne(n)
			}
		}
		if leaderIdx >= 0 && live[leaderIdx] != nil && live[leaderIdx].alive {
			closeOne(live[leaderIdx])
		}
	}()
	stuck = 0
	for len(res.Violations) == 0 {
		w.Settle()
		if w.step() {
			stuck = 0
			if res.Steps++; res.Steps > maxSteps {
				res.Violations = append(res.Violations, fmt.Sprintf("runaway: exceeded %d scheduler steps", maxSteps))
			}
			continue
		}
		select {
		case <-shutDone:
		default:
			if stuck++; stuck > 40 {
				res.Violations = append(res.Violations, "drain: cluster shutdown stuck with no pending event or timer")
			}
			continue
		}
		break
	}

	for _, n := range all {
		rep := ClusterNodeReport{Node: n.idx, Gen: n.gen, Issued: n.srv.Issued(),
			Epoch: n.nd.Epoch(), Stats: n.stats.Snapshot()}
		res.Nodes = append(res.Nodes, rep)
		res.Issued += rep.Issued
	}
	res.Granted = uniqueGranted(audit.Grants())
	for _, rs := range recs {
		res.Ops = append(res.Ops, rs...)
	}
	checkClusterInvariants(res, w, audit)
	res.Trace = buildClusterTrace(res, w)
	return res, nil
}

// runClusterWorker is one cluster client's life: stagger in, DialCluster
// over every endpoint (sticky start rotated by worker so traffic spreads
// across nodes), run the plan, close.
func runClusterWorker(w *World, sc *ClusterScenario, wk int, out []OpRecord, remaining *atomic.Int64) {
	defer remaining.Add(-1)
	for i, op := range sc.Plans[wk] {
		out[i] = OpRecord{Worker: wk, Index: i, Kind: op.Kind, Mode: op.Mode, Wire: op.Wire, K: op.K, Err: "unstarted"}
	}
	w.Clk.Sleep(time.Duration(wk+1)*150*time.Microsecond + time.Duration(wk*1009)*time.Nanosecond)

	addrs := make([]string, sc.Nodes)
	for j := range addrs {
		addrs[j] = clusterSrvAddr((wk + j) % sc.Nodes)
	}
	var cl *client.Cluster
	var err error
	for attempt := 0; attempt < 6; attempt++ {
		cl, err = client.DialCluster(addrs, client.Options{
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
		if err == nil {
			break
		}
		w.Clk.Sleep(time.Duration(attempt+1)*4*time.Millisecond + time.Duration(wk*1009)*time.Nanosecond)
	}
	if err != nil {
		for i := range out {
			out[i].Err = "dial:" + classify(err)
		}
		return
	}
	defer cl.Close()

	for i, op := range sc.Plans[wk] {
		w.Clk.Sleep(op.Think)
		rec := &out[i]
		rec.Start = w.Clk.Now().Sub(clock.SimEpoch)
		switch op.Kind {
		case OpInc:
			v, err := cl.IncMode(context.Background(), op.Wire, op.Mode)
			if err == nil {
				rec.Vals = []int64{v}
			}
			rec.Err = classify(err)
		case OpBatch:
			rs, err := cl.IncBatchCtx(context.Background(), op.Wire, op.K, op.Mode)
			if err == nil {
				for _, r := range rs {
					for off := int64(0); off < r.Count; off++ {
						rec.Vals = append(rec.Vals, r.First+off*r.Stride)
					}
				}
			}
			rec.Err = classify(err)
		}
		rec.End = w.Clk.Now().Sub(clock.SimEpoch)
	}
}

// uniqueGranted merges the audited grant ranges (freelist re-grants
// re-issue id spans) and counts the distinct ids ever granted.
func uniqueGranted(grants []cluster.GrantRecord) int64 {
	if len(grants) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 } // [lo, hi)
	ivs := make([]iv, 0, len(grants))
	for _, g := range grants {
		ivs = append(ivs, iv{g.R.First, g.R.First + g.R.Count})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v.lo <= cur.hi {
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
			continue
		}
		total += cur.hi - cur.lo
		cur = v
	}
	return total + cur.hi - cur.lo
}

// checkClusterInvariants audits one finished cluster run.
func checkClusterInvariants(res *ClusterResult, w *World, audit *cluster.Audit) {
	sc := &res.Scenario
	adversity := !sc.CleanRun()

	// No id is ever delivered twice, cluster-wide — the heart of the
	// epoch-fencing argument — and cluster-wide F_nl = 0: within an epoch
	// the leader mints LIN from a strictly increasing frontier; across
	// elections the new epoch's stripe starts above the old one's, and
	// the lease ordering (LeaseTimeout < SuspectAfter) forbids old-leader
	// mints after the new leader starts.
	delivered, violations := auditOps(res.Ops, w, adversity, true)
	res.Violations = append(res.Violations, violations...)
	res.Delivered = len(delivered)

	// Every delivered id lies inside an audited grant, and every grant
	// stays inside its epoch's stripe.
	grants := audit.Grants()
	for _, g := range grants {
		base, limit := cluster.StripeBase(g.Epoch), cluster.StripeBase(g.Epoch)+cluster.StripeSize
		if g.R.First < base || g.R.First+g.R.Count > limit {
			res.Violations = append(res.Violations,
				fmt.Sprintf("grant %+v escapes epoch %d stripe", g.R, g.Epoch))
		}
	}
	sort.Slice(grants, func(i, j int) bool { return grants[i].R.First < grants[j].R.First })
	covered := func(v int64) bool {
		i := sort.Search(len(grants), func(i int) bool { return grants[i].R.First > v })
		for i--; i >= 0; i-- {
			g := grants[i]
			if v < g.R.First {
				return false
			}
			if v < g.R.First+g.R.Count {
				return true
			}
		}
		return false
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
		var fwd, served, refill, noRange uint64
		for _, rep := range res.Nodes {
			fwd += rep.Stats.LinForwards
			served += rep.Stats.LinServed
			refill += rep.Stats.RefillBlocking
			noRange += rep.Stats.NoRange
		}
		if sc.LinFrac == 0 && (fwd != 0 || served != 0) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("SC-only clean run performed %d LIN forwards, %d LIN serves — SC must stay node-local", fwd, served))
		}
		if noRange != 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("clean cluster run shed %d mints with no_range", noRange))
		}
		if refill > uint64(sc.Nodes) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%d blocking refills on a clean run (at most one first-fill per node, %d nodes) — prefetch fell behind", refill, sc.Nodes))
		}
	}
}

// buildClusterTrace assembles the canonical replayable trace: scenario
// header, scheduler log, per-op log, per-incarnation accounting, footer.
func buildClusterTrace(res *ClusterResult, w *World) []byte {
	var b strings.Builder
	b.WriteString(res.Scenario.Header())
	b.WriteString(w.trace.String())
	ops := append([]OpRecord(nil), res.Ops...)
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Worker != ops[j].Worker {
			return ops[i].Worker < ops[j].Worker
		}
		return ops[i].Index < ops[j].Index
	})
	for _, op := range ops {
		mode := "sc"
		if op.Mode == wire.ModeLIN {
			mode = "lin"
		}
		fmt.Fprintf(&b, "O w%d i%d %s %s wire=%d k=%d s=%d e=%d err=%q vals=",
			op.Worker, op.Index, op.Kind, mode, op.Wire, op.K,
			op.Start.Nanoseconds(), op.End.Nanoseconds(), op.Err)
		for vi, v := range op.Vals {
			if vi > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	for _, rep := range res.Nodes {
		st := rep.Stats
		fmt.Fprintf(&b, "S n%d g%d issued=%d epoch=%d grants=%d reqs=%d fwd=%d served=%d refill=%d norange=%d notleader=%d elections=%d reclaims=%d handoffs=%d\n",
			rep.Node, rep.Gen, rep.Issued, rep.Epoch, st.Grants, st.RangeRequests,
			st.LinForwards, st.LinServed, st.RefillBlocking, st.NoRange, st.NotLeader,
			st.Elections, st.Reclaims, st.Handoffs)
	}
	fmt.Fprintf(&b, "# cluster granted=%d issued=%d delivered=%d burned=%d steps=%d violations=%d\n",
		res.Granted, res.Issued, res.Delivered, res.Granted-res.Issued, res.Steps, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "V %s\n", v)
	}
	return []byte(b.String())
}
