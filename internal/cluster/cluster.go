// Package cluster runs N countd instances as one logical counter — the
// paper's SC-versus-LIN contrast stretched across machines. It has three
// layers:
//
//   - membership: a seeded gossip protocol over the wire framing's
//     cluster opcodes (TGossip), which ride the serving door: a node
//     opens no listener of its own and calls each peer on one pipelined
//     client.Client. Each node bumps a heartbeat every round,
//     exchanges full member tables with one peer, and classifies peers
//     alive/suspect/dead from how long ago their heartbeat last advanced.
//     All waiting goes through clock.Clock, so the same code runs
//     unmodified under the deterministic simulation harness.
//
//   - ownership: the global id space is carved into epoch-fenced stripes.
//     An epoch is term*MaxNodes+node; a leader at epoch e grants blocks
//     only from stripe [e<<StripeShift, (e+1)<<StripeShift). Terms
//     strictly increase across elections and no two nodes ever share an
//     epoch, so blocks granted under different epochs are disjoint by
//     arithmetic — no duplicate id can be minted even under split brain,
//     node kills, or rejoins, with no timing assumptions at all. Within
//     one epoch a single allocator bumps one frontier, so each block lies
//     above every earlier one. A node that crashes or leaves burns its
//     blocks' unminted remainder (a gap, which SC counting tolerates).
//
//   - routing: every id leaves the leader one way, as a grant from its
//     frontier (Node.grant). SC increments mint node-locally from owned
//     blocks (zero cross-node RPCs on the hot path — a standby block is
//     prefetched at half-use; mintState holds the rule), while each LIN
//     sweep is granted exactly its k: under the node mutex on the
//     leader, one TRangeRequest to it from anywhere else. A LIN sweep
//     therefore lies above every value already handed out in its epoch,
//     SC values included, and across elections the new epoch's stripe
//     starts above the old one's — so the remote step property's
//     F_nl = 0 holds cluster-wide, and no LIN value falls below one its
//     session already holds. The leader grants only under an
//     endorsement lease that a majority of peers back and that has aged
//     past RPCTimeout+leaseTimeout, which makes leases mutually
//     exclusive across a partition heal (leadership.held in lease.go
//     has the argument).
//
// The package deliberately does not import internal/server: cmd/countd
// composes them — the cluster Minter is the server's Backend and
// Node.LIN its LIN backend.
package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/wire"
)

// Epoch-stripe arithmetic. An epoch encodes (term, node): epochs from
// different elections or different nodes are distinct integers, and each
// epoch owns the id stripe [epoch<<StripeShift, (epoch+1)<<StripeShift).
const (
	// MaxNodes bounds node ids (1 <= id < MaxNodes; 0 is the wire's
	// no-node sentinel) so the epoch encoding term*MaxNodes+id is
	// injective.
	MaxNodes = 1 << 10
	// StripeShift sizes an epoch's id stripe (2^34 ids ≈ 17 billion mints
	// per election term per node before a stripe could exhaust).
	StripeShift = 34
	// StripeSize is the number of ids in one epoch's stripe.
	StripeSize = int64(1) << StripeShift
	// MaxTerm is the highest election term a peer's digest may carry: the
	// election after it, at the highest node id, still owns a stripe that
	// ends within int64. A larger term would overflow StripeBase.
	MaxTerm = 1<<(63-StripeShift)/MaxNodes - 2
)

// EpochOf encodes an election term and a node id into an epoch.
func EpochOf(term, node uint64) uint64 { return term*MaxNodes + node }

// TermOf extracts the election term from an epoch.
func TermOf(epoch uint64) uint64 { return epoch / MaxNodes }

// NodeOf extracts the minting node id from an epoch.
func NodeOf(epoch uint64) uint64 { return epoch % MaxNodes }

// StripeBase is the first id of an epoch's stripe.
func StripeBase(epoch uint64) int64 { return int64(epoch) << StripeShift }

// Config assembles a cluster node.
type Config struct {
	// NodeID is this node's id, unique in the cluster, in [1, MaxNodes).
	// Id 0 is reserved: the gossip wire uses it as the no-node sentinel
	// (a digest's From and a claim's Leader are 0 only when absent).
	NodeID uint64
	// Addr is the serving address this node advertises to its peers: the
	// door of the server whose LIN backend is the node's LIN().
	Addr string
	// Seeds are peer serving addresses used to bootstrap gossip (the
	// -join list; may include this node's own address, which is skipped).
	Seeds []string
	// ExpectedPeers is the seeded cluster size; elections need fresh
	// heartbeats from a majority of it, so a node that boots alone cannot
	// declare itself leader before meeting its peers. Defaults to
	// 1+len(Seeds distinct of self).
	ExpectedPeers int

	// Clock is the time seam (nil: wall clock).
	Clock clock.Clock
	// GossipEvery paces the gossip loop (default 150ms). The failure
	// detector and the lease scale with it: a silent member is suspect
	// after 8 periods and dead after 24, and the lease timeout is 4.
	GossipEvery time.Duration
	// RPCTimeout bounds one cluster RPC round trip (default 2s).
	RPCTimeout time.Duration

	// Width is the wire fan the node's minter advertises as its shape
	// (default 8). Mints ignore the wire; the width only keeps clients'
	// wire-pinning semantics intact.
	Width int
	// BlockSize is the id count of one SC grant (default 4096). A LIN
	// sweep is granted exactly its own k.
	BlockSize int64

	// PeerDialer, when set, opens the node's connections to its peers
	// (client.Options.Dialer; nil: TCP with RPCTimeout as the dial
	// timeout). It may be called from the gossip loop, the minter's grant
	// path and the LIN sweeper at once.
	PeerDialer func(addr string, timeout time.Duration) (net.Conn, error)

	// Stats receives the node's counters (nil: a private sink).
	Stats *Stats
	// Audit, when set, records every grant for invariant checking (the
	// DST harness asserts disjointness and minted-within-granted across
	// whole cluster runs, kills and restarts included).
	Audit *Audit
	// Logf, when set, receives membership and leadership transitions.
	Logf func(format string, args ...any)
}

// withDefaults validates cfg and fills the documented defaults.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.NodeID == 0 || cfg.NodeID >= MaxNodes {
		return cfg, fmt.Errorf("cluster: node id %d out of range (1..%d; 0 is the wire's no-node sentinel)",
			cfg.NodeID, MaxNodes-1)
	}
	if cfg.Addr == "" {
		return cfg, fmt.Errorf("cluster: missing advertised serving address")
	}
	cfg.Clock = clock.Or(cfg.Clock)
	if cfg.GossipEvery <= 0 {
		cfg.GossipEvery = 150 * time.Millisecond
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 2 * time.Second
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 4096
	}
	if cfg.ExpectedPeers <= 0 {
		n := 1
		for _, s := range cfg.Seeds {
			if s != cfg.Addr {
				n++
			}
		}
		cfg.ExpectedPeers = n
	}
	if cfg.Stats == nil {
		cfg.Stats = NewStats()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg, nil
}

// The failure detector and the lease are fixed multiples of the gossip
// period. A member whose heartbeat has not advanced for suspectAfter is
// suspect, and dead after deadAfter. The leader serves LIN and grants
// ranges only while a majority's view of it is at most leaseTimeout
// stale. leaseTimeout is half of suspectAfter for every GossipEvery, so
// a deposed leader's lease lapses before any successor is electable.
func (cfg Config) suspectAfter() time.Duration { return 8 * cfg.GossipEvery }
func (cfg Config) deadAfter() time.Duration    { return 24 * cfg.GossipEvery }
func (cfg Config) leaseTimeout() time.Duration { return 4 * cfg.GossipEvery }

// Audit is an append-only record of every range grant in a cluster run,
// shared by all nodes under test so the harness can check global
// invariants: grants from different epochs are disjoint by stripe
// arithmetic, grants within an epoch are disjoint by construction, and
// every minted id must fall inside some grant.
type Audit struct {
	mu     sync.Mutex
	grants []GrantRecord
}

// GrantRecord is one audited grant.
type GrantRecord struct {
	Epoch uint64
	To    uint64
	R     wire.Range
}

// NewAudit returns an empty audit log.
func NewAudit() *Audit { return &Audit{} }

func (a *Audit) record(g GrantRecord) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.grants = append(a.grants, g)
	a.mu.Unlock()
}

// Grants returns a copy of the audited grant log.
func (a *Audit) Grants() []GrantRecord {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]GrantRecord(nil), a.grants...)
}
