package dst

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/consistency"
)

// Tally sums one flavor's runs over a seed sweep: what the audit counts
// but the flavor does not enforce, and what the runs cost. Every field
// is a count of simulated events, so two builds that run the same seeds
// agree on it exactly, whatever machine they run on.
type Tally struct {
	Seeds  int                   // seeds run
	Broken int                   // seeds with a session-order break
	K      int64                 // largest displacement k of either mode
	SC     consistency.Fractions // F_nl of SC values, pooled over every seed's SC ops

	Issued, Delivered, Steps int64

	// Cluster flavors only: ids covered by audited grants, ids granted
	// but never issued, and every incarnation's counters.
	Granted, Burned int64
	nodes           []ClusterNodeReport
}

// Add counts one seed's outcome.
func (t *Tally) Add(o *Outcome) {
	t.Seeds++
	t.Broken += min(o.Audit.SessionBreaks(), 1)
	t.K = max(t.K, o.Audit.SC.Displacement, o.Audit.LIN.Displacement)
	t.SC.Total += o.Audit.SC.Ops
	t.SC.NonLin += o.Audit.SC.NonLin
	t.Issued += o.Issued
	t.Delivered += int64(o.Delivered)
	t.Steps += int64(o.Steps)
}

// AddCluster counts one cluster seed: its outcome, its grants and its
// nodes' counters.
func (t *Tally) AddCluster(r *ClusterResult) {
	t.Add(&r.Outcome)
	t.Granted += r.Granted
	t.Burned += r.Granted - r.Issued
	t.nodes = append(t.nodes, r.Nodes...)
}

// nodeTotals sums the S-line counters over node reports.
func nodeTotals(nodes []ClusterNodeReport) cluster.Snapshot {
	var s cluster.Snapshot
	for _, n := range nodes {
		s.Grants += n.Stats.Grants
		s.RangeRequests += n.Stats.RangeRequests
		s.LinForwards += n.Stats.LinForwards
		s.LinServed += n.Stats.LinServed
		s.RefillBlocking += n.Stats.RefillBlocking
		s.NoRange += n.Stats.NoRange
		s.NotLeader += n.Stats.NotLeader
		s.Elections += n.Stats.Elections
	}
	return s
}

// Summary is the audit half of the tally, as a sweep prints it.
func (t *Tally) Summary() string {
	return fmt.Sprintf("%d seeds with a session-order break, largest displacement k %d, F_nl of SC values %.4f (%d/%d)",
		t.Broken, t.K, t.SC.NonLinFraction(), t.SC.NonLin, t.SC.Total)
}

// Cost is the tally as one line of testdata/cost.golden: the audit
// counts, then the cost counters, named as the trace's footer and S
// lines name them.
func (t *Tally) Cost() string {
	s := fmt.Sprintf("seeds=%d broken=%d k=%d fnl_sc=%.4f(%d/%d) issued=%d delivered=%d steps=%d",
		t.Seeds, t.Broken, t.K, t.SC.NonLinFraction(), t.SC.NonLin, t.SC.Total, t.Issued, t.Delivered, t.Steps)
	if len(t.nodes) == 0 {
		return s
	}
	n := nodeTotals(t.nodes)
	return s + fmt.Sprintf(" granted=%d burned=%d grants=%d reqs=%d fwd=%d served=%d refill=%d norange=%d notleader=%d elections=%d",
		t.Granted, t.Burned, n.Grants, n.RangeRequests, n.LinForwards, n.LinServed,
		n.RefillBlocking, n.NoRange, n.NotLeader, n.Elections)
}
