package client

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/wire"
)

// stripeBackend mints from a private id stripe, standing in for a
// cluster node's minter: two servers with different bases can never
// hand out the same id, just like two nodes minting from epoch-fenced
// blocks.
type stripeBackend struct {
	shape network.Shape
	next  atomic.Int64
}

func newStripeBackend(width int, base int64) *stripeBackend {
	b := &stripeBackend{shape: network.Shape{Width: width, Sinks: width}}
	b.next.Store(base)
	return b
}

func (b *stripeBackend) Shape() network.Shape { return b.shape }
func (b *stripeBackend) Mint(dst []runtime.Range, w, k int) ([]runtime.Range, error) {
	first := b.next.Add(int64(k)) - int64(k)
	return append(dst, runtime.Range{First: first, Stride: 1, Count: int64(k)}), nil
}

// startNode serves one simulated cluster node on loopback.
func startNode(t *testing.T, be server.Backend, opt server.Options) (*server.Server, string) {
	t.Helper()
	s := server.New(be, opt)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, addr.String()
}

// notLeader refuses every mint the way a follower with no leader does.
type notLeader struct{ *stripeBackend }

func (notLeader) Mint(dst []runtime.Range, w, k int) ([]runtime.Range, error) {
	return dst, wire.ErrNotLeader
}

// TestClusterRefusalAdvances: a not_leader refusal moves the call on to
// the next endpoint, which answers it, and the refusing node reads
// nothing but the one refused attempt: no re-send and no THello follow
// it. A plain client of that node still retries the refusal.
func TestClusterRefusalAdvances(t *testing.T) {
	refusing := server.NewStats(0)
	_, a0 := startNode(t, notLeader{newStripeBackend(4, 0)}, server.Options{Stats: refusing})
	_, a1 := startNode(t, newStripeBackend(4, 1<<20), server.Options{})
	c, err := DialCluster([]string{a0, a1}, Options{Retries: 5, OpTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	before := refusing.Snapshot().FramesIn // the handshake's THello
	v, err := c.IncCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("inc: %v", err)
	}
	if v < 1<<20 {
		t.Fatalf("value %d is not from the next endpoint's stripe", v)
	}
	// The endpoint's client returns the refusal at once, whatever its
	// retry budget: a second frame would be a re-send to the node that
	// refused, and every frame beyond that a hello round trip the refusal
	// bought.
	if got := refusing.Snapshot().FramesIn - before; got != 1 {
		t.Fatalf("refusing endpoint read %d frames for one call, want the 1 refused attempt", got)
	}

	plain := dialC(t, a0, Options{Retries: 1})
	before = refusing.Snapshot().FramesIn
	if _, err := plain.IncCtx(context.Background(), 0); !errors.Is(err, wire.ErrNotLeader) {
		t.Fatalf("plain client inc: %v, want not_leader", err)
	}
	if got := refusing.Snapshot().FramesIn - before; got != 2 {
		t.Fatalf("a plain client sent %d frames for one refused call, want 2 (Retries 1)", got)
	}
}

// TestClusterFailover: increments keep flowing when the sticky endpoint
// dies, and the values observed across the failover stay unique.
func TestClusterFailover(t *testing.T) {
	s0, a0 := startNode(t, newStripeBackend(4, 0), server.Options{})
	_, a1 := startNode(t, newStripeBackend(4, 1<<20), server.Options{})
	c, err := DialCluster([]string{a0, a1}, Options{Retries: 1, OpTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	var vals []int64
	for i := 0; i < 10; i++ {
		v, err := c.IncCtx(context.Background(), 0)
		if err != nil {
			t.Fatalf("pre-failover inc %d: %v", i, err)
		}
		vals = append(vals, v)
	}
	_ = s0.Close()
	for i := 0; i < 10; i++ {
		v, err := c.IncCtx(context.Background(), 0)
		if err != nil {
			t.Fatalf("post-failover inc %d: %v", i, err)
		}
		vals = append(vals, v)
	}
	sorted := append([]int64(nil), vals...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			t.Fatalf("duplicate value %d across failover", sorted[i])
		}
	}
	// The failover must actually have moved traffic onto the stripe of
	// the second node.
	if !slices.ContainsFunc(vals, func(v int64) bool { return v >= 1<<20 }) {
		t.Fatalf("no value from the surviving node's stripe: %v", vals)
	}
}

// TestClusterRetryableRefusals: cluster refusals (not-leader, no-range)
// are retryable for the single client, so brief elections heal without
// surfacing errors.
func TestRetryableClusterErrors(t *testing.T) {
	if !retryable(wire.ErrNotLeader) || !retryable(wire.ErrNoRange) {
		t.Fatal("cluster refusals must be retryable")
	}
}
