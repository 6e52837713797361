package client

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// frameTap tracks, across every connection of a pool, the TIncBatch
// frames sent and not yet answered, per mode.
type frameTap struct {
	t    *testing.T
	mu   sync.Mutex
	mode map[uint64]wire.Mode // unanswered TIncBatch ids
	out  [2]int               // unanswered TIncBatch frames per mode
	max  [2]int               // the most out at once per mode
	sent [2]int               // TIncBatch frames sent per mode
}

func (t *frameTap) dial(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: nc, tap: t}, nil
}

func (t *frameTap) sentFrame(f wire.Frame) {
	if f.Type != wire.TIncBatch {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mode[f.ID] = f.Mode
	t.sent[f.Mode]++
	t.out[f.Mode]++
	t.max[f.Mode] = max(t.max[f.Mode], t.out[f.Mode])
}

func (t *frameTap) answered(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m, ok := t.mode[id]; ok {
		delete(t.mode, id)
		t.out[m]--
	}
}

// tapConn reports each frame to its tap in the order the client can act
// on it: a request before its bytes leave, a reply before its last byte
// reaches the client's reader. So a reply is always counted before any
// frame its arrival lets the client send.
type tapConn struct {
	net.Conn
	tap  *frameTap
	rbuf []byte // reply bytes not yet a whole frame; the reader goroutine's own
}

func (c *tapConn) Write(b []byte) (int, error) {
	for rest := b; len(rest) > 0; {
		f, n, err := wire.DecodeFrame(rest)
		if err != nil {
			c.tap.t.Errorf("request bytes do not decode: %v", err)
			break
		}
		c.tap.sentFrame(f)
		rest = rest[n:]
	}
	return c.Conn.Write(b)
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.rbuf = append(c.rbuf, b[:n]...)
	for len(c.rbuf) > 0 {
		f, used, derr := wire.DecodeFrame(c.rbuf)
		if errors.Is(derr, wire.ErrTruncated) {
			break
		}
		if derr != nil {
			c.tap.t.Errorf("reply bytes do not decode: %v", derr)
			c.rbuf = nil
			break
		}
		c.tap.answered(f.ID)
		c.rbuf = c.rbuf[used:]
	}
	return n, err
}

// TestOneFramePerModeInFlight pins the combiner's promise, which is why
// the client has no window tuning to do: however many callers and
// connections, at most one TIncBatch per mode is unanswered at any time,
// because an opener holds its mode's turn until its frame is answered.
// 64 SC and 64 LIN callers share a four-connection pool against a slow
// backend, so every frame is out long enough for a second to overlap it.
func TestOneFramePerModeInFlight(t *testing.T) {
	const callers, per = 64, 8
	tap := &frameTap{t: t, mode: make(map[uint64]wire.Mode)}
	s := server.New(&slowBackend{delay: 2 * time.Millisecond}, server.Options{})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialC(t, addr.String(), Options{Conns: 4, Dialer: tap.dial})

	var wg sync.WaitGroup
	values := make(chan int64, 2*callers*per)
	for _, mode := range []wire.Mode{wire.ModeSC, wire.ModeLIN} {
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(mode wire.Mode, i int) {
				defer wg.Done()
				for j := 0; j < per; j++ {
					v, err := c.IncMode(context.Background(), i, mode)
					if err != nil {
						t.Error(err)
						return
					}
					values <- v
				}
			}(mode, i)
		}
	}
	wg.Wait()
	close(values)

	seen := make(map[int64]bool)
	for v := range values {
		if seen[v] {
			t.Fatalf("value %d dealt twice", v)
		}
		seen[v] = true
	}
	if len(seen) != 2*callers*per {
		t.Fatalf("%d values for %d incs", len(seen), 2*callers*per)
	}

	tap.mu.Lock()
	defer tap.mu.Unlock()
	for _, m := range []wire.Mode{wire.ModeSC, wire.ModeLIN} {
		if tap.sent[m] == 0 || tap.out[m] != 0 {
			t.Fatalf("%v: %d TIncBatch frames sent, %d unanswered at the end", m, tap.sent[m], tap.out[m])
		}
		if tap.max[m] > 1 {
			t.Errorf("%v: %d TIncBatch frames in flight at once, want at most 1", m, tap.max[m])
		}
		t.Logf("%v: %d frames for %d incs", m, tap.sent[m], callers*per)
	}
}
