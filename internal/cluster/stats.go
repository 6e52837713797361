package cluster

import (
	"io"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Stats is the cluster layer's metrics sink: lock-free counters plus the
// LIN grant RPC latency histogram, surfaced on countd's existing /metrics
// handler (Node.AppendMetrics) under the countd_cluster_* prefix.
type Stats struct {
	GossipRounds   atomic.Uint64 // gossip exchanges attempted
	GossipFailures atomic.Uint64 // gossip exchanges that errored
	Grants         atomic.Uint64 // grants made while leading (SC blocks and LIN sweeps)
	RangeRequests  atomic.Uint64 // SC block requests by the minter (prefetch + blocking)
	LinForwards    atomic.Uint64 // LIN grant RPCs to a remote leader (one per LIN sweep)
	LinServed      atomic.Uint64 // LIN sweeps granted under this node's own lease
	NotLeader      atomic.Uint64 // cluster requests refused for lack of leadership
	RefillBlocking atomic.Uint64 // mints that had to wait on a grant RPC
	NoRange        atomic.Uint64 // mints shed because no block was obtainable
	Elections      atomic.Uint64 // terms this node started

	// FwdLatency is the LIN grant RPC round-trip latency histogram.
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
// node, and the LIN grant RPC latency histogram.
func (n *Node) AppendMetrics(w io.Writer) {
	st := n.cfg.Stats
	counter := func(name, help string, v uint64) {
		telemetry.WriteFamily(w, name, "counter", help)
		telemetry.WriteSample(w, name, "", v)
	}
	gauge := func(name, help string, v int64) {
		telemetry.WriteFamily(w, name, "gauge", help)
		telemetry.WriteSample(w, name, "", v)
	}

	n.mu.Lock()
	c := n.lead.ms.counts(n.cfg.Clock.Now())
	n.mu.Unlock()
	telemetry.WriteFamily(w, "countd_cluster_members", "gauge", "cluster members by state")
	for s, v := range c {
		telemetry.WriteSample(w, "countd_cluster_members", `state="`+State(s).String()+`"`, v)
	}

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
	counter("countd_cluster_grants_total", "id grants made while leading (SC blocks and LIN sweeps)", st.Grants.Load())
	counter("countd_cluster_range_requests_total", "SC block requests made by the minter", st.RangeRequests.Load())
	counter("countd_cluster_lin_forwards_total", "LIN grant RPCs sent to a remote leader, one per LIN sweep", st.LinForwards.Load())
	counter("countd_cluster_lin_served_total", "LIN sweeps granted under this node's own lease", st.LinServed.Load())
	counter("countd_cluster_not_leader_total", "cluster requests refused for lack of leadership", st.NotLeader.Load())
	counter("countd_cluster_refill_blocking_total", "mints that waited on a grant RPC", st.RefillBlocking.Load())
	counter("countd_cluster_no_range_total", "mints shed with no obtainable block", st.NoRange.Load())
	counter("countd_cluster_elections_total", "election terms this node started", st.Elections.Load())

	telemetry.WriteFamily(w, "countd_cluster_lin_forward_seconds", "histogram", "LIN grant RPC round-trip latency")
	telemetry.WriteHistogram(w, "countd_cluster_lin_forward_seconds", "", st.FwdLatency.Summary())
}
