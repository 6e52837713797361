// Package cluster runs N countd instances as one logical counter — the
// paper's SC-versus-LIN contrast stretched across machines. It has three
// layers:
//
//   - membership: a seeded gossip protocol over the wire framing's
//     cluster opcodes (TGossip). Each node bumps a heartbeat every round,
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
//     one epoch a single allocator hands out disjoint blocks by
//     construction. Crashing burns a block's unminted remainder (a gap,
//     which SC counting tolerates); graceful shutdown returns it for
//     re-grant under an epoch check.
//
//   - routing: SC increments mint node-locally from owned blocks (zero
//     cross-node RPCs on the hot path — a standby block is prefetched at
//     half-use), while LIN increments are forwarded to the leader's
//     serialization point, which mints them in arrival order from
//     strictly increasing stripes — so the remote step property's
//     F_nl = 0 holds cluster-wide. The leader holds an endorsement
//     lease: it serves LIN and grants ranges only while a majority of
//     peers have directly restated its exact claim within LeaseTimeout,
//     AND both its own tenure and those endorsements have aged past
//     RPCTimeout+LeaseTimeout. The aging fence is what makes leases
//     mutually exclusive across a partition heal: a peer that switches
//     to a newer claim never endorses the older one again (terms are
//     monotone per node), so every lease statement the old leader still
//     holds was produced before the switch and expires within
//     RPCTimeout+LeaseTimeout of it — by the time the new leader's
//     endorsements mature, majority intersection guarantees the old
//     lease is provably dead. See Node.leaseLocked for the full
//     argument.
//
// The package deliberately does not import internal/server: cmd/countd
// composes them — the cluster Minter is the server's Backend, Node.LIN
// its LIN backend, and Node.Advertise plugs into the server's options.
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
)

// EpochOf encodes an election term and a node id into an epoch.
func EpochOf(term, node uint64) uint64 { return term*MaxNodes + node }

// TermOf extracts the election term from an epoch.
func TermOf(epoch uint64) uint64 { return epoch / MaxNodes }

// NodeOf extracts the minting node id from an epoch.
func NodeOf(epoch uint64) uint64 { return epoch % MaxNodes }

// StripeBase is the first id of an epoch's stripe.
func StripeBase(epoch uint64) int64 { return int64(epoch) << StripeShift }

// Lane distinguishes the cluster's RPC purposes so the simulation can
// hand every lane a deterministic transport identity of its own.
type Lane int

const (
	LaneGossip  Lane = iota // periodic membership exchange
	LaneRange               // block grants, returns and prefetch
	LaneForward             // LIN forwards to the serialization point (one per sweep)
)

// Dialer opens a connection to a peer's cluster address.
type Dialer func(addr string) (net.Conn, error)

// Config assembles a cluster node.
type Config struct {
	// NodeID is this node's id, unique in the cluster, in [1, MaxNodes).
	// Id 0 is reserved: the gossip wire uses it as the no-node sentinel
	// (a digest's From and a claim's Leader are 0 only when absent).
	NodeID uint64
	// Addr is the cluster address this node advertises to its peers.
	Addr string
	// Seeds are peer cluster addresses used to bootstrap gossip (the
	// -join list; may include this node's own address, which is skipped).
	Seeds []string
	// ExpectedPeers is the seeded cluster size; elections need fresh
	// heartbeats from a majority of it, so a node that boots alone cannot
	// declare itself leader before meeting its peers. Defaults to
	// 1+len(Seeds distinct of self).
	ExpectedPeers int

	// Clock is the time seam (nil: wall clock).
	Clock clock.Clock
	// GossipEvery paces the gossip loop (default 150ms).
	GossipEvery time.Duration
	// SuspectAfter demotes a member to suspect when its heartbeat has not
	// advanced for this long (default 8×GossipEvery).
	SuspectAfter time.Duration
	// DeadAfter demotes a suspect to dead (default 3×SuspectAfter).
	DeadAfter time.Duration
	// LeaseTimeout bounds how stale the leader's majority view may be
	// while it still serves LIN and grants ranges. Must stay below
	// SuspectAfter so a deposed leader's lease lapses before a successor
	// is electable (default SuspectAfter/2).
	LeaseTimeout time.Duration
	// RPCTimeout bounds one cluster RPC round trip (default 2s).
	RPCTimeout time.Duration

	// Width is the wire fan the node's minter advertises as its shape
	// (default 8). Mints ignore the wire; the width only keeps clients'
	// wire-pinning semantics intact.
	Width int
	// BlockSize is the id count of one SC grant (default 4096).
	BlockSize int64
	// LINBlock is the id count the leader draws per LIN refill
	// (default 256).
	LINBlock int64

	// Listen opens the cluster listener (nil: TCP).
	Listen func(addr string) (net.Listener, error)
	// Dial returns the dialer for one RPC lane. Each lane has one caller
	// per node at a time: the gossip loop, the grant path (serialized by
	// the node), and the server's one LIN sweeper through Node.LIN.
	// nil: TCP with RPCTimeout as the dial timeout, any lane.
	Dial func(lane Lane) Dialer

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
		return cfg, fmt.Errorf("cluster: missing advertised cluster address")
	}
	cfg.Clock = clock.Or(cfg.Clock)
	if cfg.GossipEvery <= 0 {
		cfg.GossipEvery = 150 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 8 * cfg.GossipEvery
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3 * cfg.SuspectAfter
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = cfg.SuspectAfter / 2
	}
	if cfg.LeaseTimeout >= cfg.SuspectAfter {
		return cfg, fmt.Errorf("cluster: LeaseTimeout %v must stay below SuspectAfter %v",
			cfg.LeaseTimeout, cfg.SuspectAfter)
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 2 * time.Second
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 4096
	}
	if cfg.LINBlock <= 0 {
		cfg.LINBlock = 256
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
	if cfg.Listen == nil {
		cfg.Listen = func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
	}
	if cfg.Dial == nil {
		timeout := cfg.RPCTimeout
		cfg.Dial = func(Lane) Dialer {
			return func(addr string) (net.Conn, error) {
				return net.DialTimeout("tcp", addr, timeout)
			}
		}
	}
	if cfg.Stats == nil {
		cfg.Stats = NewStats()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg, nil
}

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
