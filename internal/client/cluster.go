package client

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/runtime"
	"repro/internal/wire"
)

// Cluster is a cluster-aware client for a multi-node counting service.
// It keeps one pooled Client per endpoint, routes requests to a sticky
// healthy endpoint, and fails over to the next one when an endpoint dies
// or refuses (the caller sees one logical counter). Because every
// cluster node mints SC increments from its own epoch-fenced blocks and
// each LIN sweep as one grant from the leader's frontier, any endpoint
// can serve any request: routing is purely about liveness.
type Cluster struct {
	addrs []string
	opt   Options

	mu      sync.Mutex
	clients []*Client // lazily dialed, index-aligned with addrs
	cur     int       // sticky endpoint cursor
	closed  bool
}

// DialCluster connects to a counting cluster given its endpoints (any
// subset of the live nodes bootstraps — the rest are failover targets).
func DialCluster(addrs []string, opt Options) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: cluster needs at least one endpoint")
	}
	c := &Cluster{
		addrs:   addrs,
		opt:     opt,
		clients: make([]*Client, len(addrs)),
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

// endpoint returns the i-th endpoint's client, dialing it on first use.
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
	cli.refusalsReturn = true
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
	return cli, nil
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
// failure, until one answers or every endpoint has failed. A cluster
// refusal (not_leader, no_range) advances like any other retryable
// error, and at once: an endpoint client does not re-send a refused
// request.
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
