package client

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// NodeAd is one endpoint's cached cluster advertisement: which node
// answers there, the epoch it was minting under when last asked, and the
// unminted ranges it held. The epoch is the cache's validity token — a
// higher epoch seen anywhere in the cluster means an election happened
// and every other endpoint's cached view may be stale.
type NodeAd struct {
	Addr  string
	Node  uint64
	Epoch uint64
	Owned []wire.Range
	Seen  bool // false until the endpoint has answered an extended hello
}

// Cluster is a cluster-aware client for a multi-node counting service.
// It keeps one pooled Client per endpoint, routes requests to a sticky
// healthy endpoint, and fails over to the next one when an endpoint dies
// or refuses (the caller sees one logical counter). Because every cluster node mints SC increments from its own
// epoch-fenced blocks and forwards LIN increments to the leader's
// serialization point, any endpoint can serve any request — routing is
// purely about liveness, and the ownership map the client caches from
// the extended handshakes is an observability surface plus the epoch
// invalidation trigger, not a correctness dependency.
type Cluster struct {
	addrs []string
	opt   Options
	clk   clock.Clock

	mu      sync.Mutex
	clients []*Client // lazily dialed, index-aligned with addrs
	ads     []NodeAd
	cur     int    // sticky endpoint cursor
	epoch   uint64 // highest epoch observed across advertisements
	closed  bool
}

// DialCluster connects to a counting cluster given its endpoints (any
// subset of the live nodes bootstraps — the rest are failover targets).
// Each endpoint handshake requests the node advertisement; old servers
// that predate the extension still work, they just contribute nothing to
// the ownership map.
func DialCluster(addrs []string, opt Options) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: cluster needs at least one endpoint")
	}
	opt.nodeHello = true
	c := &Cluster{
		addrs:   addrs,
		opt:     opt,
		clk:     clock.Or(opt.Clock),
		clients: make([]*Client, len(addrs)),
		ads:     make([]NodeAd, len(addrs)),
	}
	for i, a := range addrs {
		c.ads[i].Addr = a
	}
	// Bootstrap: at least one endpoint must answer now, so a misconfigured
	// endpoint list fails loudly instead of at first increment.
	var last error
	for i := range addrs {
		if _, err := c.endpoint(i); err == nil {
			c.mu.Lock()
			c.cur = i
			c.mu.Unlock()
			return c, nil
		} else {
			last = err
		}
	}
	return nil, fmt.Errorf("client: no cluster endpoint reachable: %w", last)
}

// endpoint returns the i-th endpoint's client, dialing it on first use,
// and folds its advertisement into the ownership map.
func (c *Cluster) endpoint(i int) (*Client, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if cli := c.clients[i]; cli != nil {
		c.mu.Unlock()
		return cli, nil
	}
	c.mu.Unlock()
	cli, err := Dial(c.addrs[i], c.opt)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cli.Close()
		return nil, ErrClosed
	}
	if c.clients[i] == nil {
		c.clients[i] = cli
	} else {
		// A racing dial won; use it and drop ours.
		go cli.Close()
		cli = c.clients[i]
	}
	c.mu.Unlock()
	c.noteAd(i, cli)
	return cli, nil
}

// noteAd folds cli's cached advertisement into the ownership map. A
// strictly higher epoch invalidates every other endpoint's cached view:
// an election happened, so ownership learned before it is history.
func (c *Cluster) noteAd(i int, cli *Client) {
	node, epoch, owned, ok := cli.NodeAd()
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ads[i] = NodeAd{Addr: c.addrs[i], Node: node, Epoch: epoch, Owned: owned, Seen: true}
	if epoch > c.epoch {
		c.epoch = epoch
		for j := range c.ads {
			if j != i {
				c.ads[j].Seen = false
			}
		}
	}
}

// refresh re-asks endpoint i for its advertisement (cheap hello round
// trip), used after cluster refusals that imply the view moved.
func (c *Cluster) refresh(ctx context.Context, i int) {
	c.mu.Lock()
	cli := c.clients[i]
	c.mu.Unlock()
	if cli == nil {
		return
	}
	if err := cli.helloAd(ctx); err == nil {
		c.noteAd(i, cli)
	}
}

// current returns the sticky endpoint's index.
func (c *Cluster) current() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// advance moves the sticky cursor off endpoint i (no-op if another
// failure already moved it).
func (c *Cluster) advance(i int) {
	c.mu.Lock()
	if c.cur == i {
		c.cur = (i + 1) % len(c.addrs)
	}
	c.mu.Unlock()
}

// do runs op against endpoints starting at the sticky one, advancing on
// failure, until one answers or every endpoint has failed. Cluster
// refusals additionally refresh the refusing endpoint's advertisement —
// a NotLeader or NoRange answer usually means the epoch moved.
func (c *Cluster) do(ctx context.Context, op func(cli *Client) error) error {
	start := c.current()
	var last error
	for n := 0; n < len(c.addrs); n++ {
		i := (start + n) % len(c.addrs)
		cli, err := c.endpoint(i)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return err
			}
			last = err
			c.advance(i)
			continue
		}
		err = op(cli)
		if err == nil {
			return nil
		}
		last = err
		if errors.Is(err, ErrClosed) || ctx.Err() != nil {
			return err
		}
		if errors.Is(err, wire.ErrNotLeader) || errors.Is(err, wire.ErrNoRange) {
			c.refresh(ctx, i)
		}
		if !retryable(err) {
			return err
		}
		c.advance(i)
	}
	return fmt.Errorf("client: all %d cluster endpoints failed: %w", len(c.addrs), last)
}

// Inc obtains the next counter value in the cluster's default mode,
// returning -1 on error (the Counter facade convention).
func (c *Cluster) Inc(w int) int64 {
	v, err := c.IncCtx(context.Background(), w)
	if err != nil {
		return -1
	}
	return v
}

// IncCtx obtains the next counter value in the cluster's default mode.
func (c *Cluster) IncCtx(ctx context.Context, w int) (int64, error) {
	return c.IncMode(ctx, w, c.opt.Mode)
}

// IncMode obtains the next counter value in an explicit consistency
// mode, failing over across endpoints.
func (c *Cluster) IncMode(ctx context.Context, w int, mode wire.Mode) (int64, error) {
	var v int64
	err := c.do(ctx, func(cli *Client) error {
		var err error
		v, err = cli.IncMode(ctx, w, mode)
		return err
	})
	return v, err
}

// IncBatch reserves k values in one request (BatchCounter facade).
func (c *Cluster) IncBatch(w, k int) []runtime.Range {
	rs, err := c.IncBatchCtx(context.Background(), w, k, c.opt.Mode)
	if err != nil {
		return nil
	}
	return rs
}

// IncBatchCtx reserves k values in an explicit mode, failing over across
// endpoints.
func (c *Cluster) IncBatchCtx(ctx context.Context, w, k int, mode wire.Mode) ([]runtime.Range, error) {
	var rs []runtime.Range
	err := c.do(ctx, func(cli *Client) error {
		var err error
		rs, err = cli.IncBatchCtx(ctx, w, k, mode)
		return err
	})
	return rs, err
}

// Read returns the issued count of whichever endpoint currently serves
// the cluster client. In a cluster each node counts what it minted, so
// this is a per-node observability read, not a global sum.
func (c *Cluster) Read(ctx context.Context) (int64, error) {
	var v int64
	err := c.do(ctx, func(cli *Client) error {
		var err error
		v, err = cli.Read(ctx)
		return err
	})
	return v, err
}

// Epoch returns the highest cluster epoch observed in any advertisement.
func (c *Cluster) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Ownership returns the cached ownership map: one entry per endpoint,
// Seen=false where the endpoint has not answered an extended hello since
// the last epoch invalidation.
func (c *Cluster) Ownership() []NodeAd {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeAd, len(c.ads))
	copy(out, c.ads)
	return out
}

// Close releases every endpoint client.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	clients := append([]*Client(nil), c.clients...)
	c.mu.Unlock()
	for _, cli := range clients {
		if cli != nil {
			cli.Close()
		}
	}
	return nil
}
