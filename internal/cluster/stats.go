package cluster

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Stats is the cluster layer's metrics sink: lock-free counters plus the
// LIN forward latency histogram, surfaced on countd's existing /metrics
// handler (Node.AppendMetrics) under the countd_cluster_* prefix.
type Stats struct {
	GossipRounds   atomic.Uint64 // gossip exchanges attempted
	GossipFailures atomic.Uint64 // gossip exchanges that errored
	Grants         atomic.Uint64 // blocks granted while leading
	RangeRequests  atomic.Uint64 // grant RPCs sent (prefetch + blocking)
	Handoffs       atomic.Uint64 // graceful range returns sent
	Reclaims       atomic.Uint64 // returned remainders accepted while leading
	LinForwards    atomic.Uint64 // TLinForward calls to a remote leader (one per LIN sweep)
	LinServed      atomic.Uint64 // LIN mints served at this node's serialization point
	NotLeader      atomic.Uint64 // cluster requests refused for lack of leadership
	RefillBlocking atomic.Uint64 // mints that had to wait on a grant RPC
	NoRange        atomic.Uint64 // mints shed because no block was obtainable
	Elections      atomic.Uint64 // terms this node started

	// FwdLatency is the LIN forward round-trip latency histogram.
	FwdLatency *telemetry.Histogram
}

// NewStats builds a stats sink.
func NewStats() *Stats {
	return &Stats{FwdLatency: telemetry.NewHistogram(4)}
}

// Snapshot is a point-in-time copy of the counters (JSON-friendly).
type Snapshot struct {
	GossipRounds   uint64 `json:"gossipRounds"`
	GossipFailures uint64 `json:"gossipFailures"`
	Grants         uint64 `json:"grants"`
	RangeRequests  uint64 `json:"rangeRequests"`
	Handoffs       uint64 `json:"handoffs"`
	Reclaims       uint64 `json:"reclaims"`
	LinForwards    uint64 `json:"linForwards"`
	LinServed      uint64 `json:"linServed"`
	NotLeader      uint64 `json:"notLeader"`
	RefillBlocking uint64 `json:"refillBlocking"`
	NoRange        uint64 `json:"noRange"`
	Elections      uint64 `json:"elections"`
}

// Snapshot copies the counters.
func (st *Stats) Snapshot() Snapshot {
	return Snapshot{
		GossipRounds:   st.GossipRounds.Load(),
		GossipFailures: st.GossipFailures.Load(),
		Grants:         st.Grants.Load(),
		RangeRequests:  st.RangeRequests.Load(),
		Handoffs:       st.Handoffs.Load(),
		Reclaims:       st.Reclaims.Load(),
		LinForwards:    st.LinForwards.Load(),
		LinServed:      st.LinServed.Load(),
		NotLeader:      st.NotLeader.Load(),
		RefillBlocking: st.RefillBlocking.Load(),
		NoRange:        st.NoRange.Load(),
		Elections:      st.Elections.Load(),
	}
}

// AppendMetrics writes the cluster metrics in Prometheus text exposition
// format: counters, the membership/ownership gauges read live from the
// node, and the LIN forward latency histogram.
func (n *Node) AppendMetrics(w io.Writer) {
	st := n.cfg.Stats
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	alive, suspect, dead := n.memberCounts()
	fmt.Fprintf(w, "# HELP countd_cluster_members cluster members by state\n# TYPE countd_cluster_members gauge\n")
	fmt.Fprintf(w, "countd_cluster_members{state=\"alive\"} %d\n", alive)
	fmt.Fprintf(w, "countd_cluster_members{state=\"suspect\"} %d\n", suspect)
	fmt.Fprintf(w, "countd_cluster_members{state=\"dead\"} %d\n", dead)

	gauge("countd_cluster_node_id", "this node's id", int64(n.cfg.NodeID))
	gauge("countd_cluster_epoch", "current epoch (term*1024+leader)", int64(n.Epoch()))
	leader := int64(-1)
	if id, _, ok := n.Leader(); ok {
		leader = int64(id)
	}
	gauge("countd_cluster_leader", "leader node id in the current view (-1: none)", leader)
	isLeader := int64(0)
	if n.IsLeader() {
		isLeader = 1
	}
	gauge("countd_cluster_is_leader", "1 while this node holds the leader lease", isLeader)
	gauge("countd_cluster_owned_ranges", "unminted id ranges this node holds", int64(len(n.minter.Owned())))

	counter("countd_cluster_gossip_rounds_total", "gossip exchanges attempted", st.GossipRounds.Load())
	counter("countd_cluster_gossip_failures_total", "gossip exchanges that errored", st.GossipFailures.Load())
	counter("countd_cluster_grants_total", "id blocks granted while leading", st.Grants.Load())
	counter("countd_cluster_range_requests_total", "grant RPCs sent", st.RangeRequests.Load())
	counter("countd_cluster_handoffs_total", "graceful range returns sent", st.Handoffs.Load())
	counter("countd_cluster_reclaims_total", "returned remainders accepted while leading", st.Reclaims.Load())
	counter("countd_cluster_lin_forwards_total", "LIN mints forwarded to a remote leader", st.LinForwards.Load())
	counter("countd_cluster_lin_served_total", "LIN mints served at this node", st.LinServed.Load())
	counter("countd_cluster_not_leader_total", "cluster requests refused for lack of leadership", st.NotLeader.Load())
	counter("countd_cluster_refill_blocking_total", "mints that waited on a grant RPC", st.RefillBlocking.Load())
	counter("countd_cluster_no_range_total", "mints shed with no obtainable block", st.NoRange.Load())
	counter("countd_cluster_elections_total", "election terms this node started", st.Elections.Load())

	fmt.Fprintf(w, "# HELP countd_cluster_lin_forward_seconds LIN forward round-trip latency\n# TYPE countd_cluster_lin_forward_seconds histogram\n")
	telemetry.WriteHistogram(w, "countd_cluster_lin_forward_seconds", "", st.FwdLatency.Summary())
}
