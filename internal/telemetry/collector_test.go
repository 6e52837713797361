package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestCollectorConcurrentAccuracy hammers one collector from many workers
// and checks every merged counter is exact — the sharded counters must not
// lose updates under contention (run under -race in CI).
func TestCollectorConcurrentAccuracy(t *testing.T) {
	const (
		workers = 8
		ops     = 2000
		nbal    = 6
		nwire   = 4
		nsink   = 4
	)
	c := NewCollectorShards(nbal, nwire, nsink, 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < ops; k++ {
				c.TokenEnter(w)
				c.BalancerVisit(w, w%nbal)
				c.BalancerVisit(w, (w+1)%nbal)
				if k%10 == 0 {
					c.CASRetry(w, w%nbal)
				}
				c.TokenExit(w, w%nsink, int64(k), time.Duration(k+1)*time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()

	s := c.Snapshot()
	if s.Tokens != workers*ops {
		t.Fatalf("tokens = %d, want %d", s.Tokens, workers*ops)
	}
	if got := s.TotalToggles(); got != 2*workers*ops {
		t.Fatalf("total toggles = %d, want %d", got, 2*workers*ops)
	}
	var retries, wires, sinks uint64
	for _, v := range s.CASRetries {
		retries += v
	}
	for _, v := range s.WireTokens {
		wires += v
	}
	for _, v := range s.SinkTokens {
		sinks += v
	}
	if retries != workers*ops/10 {
		t.Errorf("cas retries = %d, want %d", retries, workers*ops/10)
	}
	if wires != workers*ops || sinks != workers*ops {
		t.Errorf("wire tokens = %d, sink tokens = %d, want %d each", wires, sinks, workers*ops)
	}
	// Two workers per wire/sink slot (8 workers mod 4): exact per-slot counts.
	for i, v := range s.WireTokens {
		if v != 2*ops {
			t.Errorf("wire %d tokens = %d, want %d", i, v, 2*ops)
		}
	}
	if s.Latency.Count != workers*ops {
		t.Errorf("latency count = %d, want %d", s.Latency.Count, workers*ops)
	}
	if s.Latency.Max != ops*time.Nanosecond {
		t.Errorf("latency max = %v, want %v", s.Latency.Max, ops*time.Nanosecond)
	}
}

func TestSnapshotTopBalancers(t *testing.T) {
	c := NewCollectorShards(4, 1, 1, 1)
	hits := []int{3, 1, 3, 2, 3, 1}
	for _, b := range hits {
		c.BalancerVisit(0, b)
	}
	top := c.Snapshot().TopBalancers(3)
	want := []int{3, 1, 2}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("top balancers = %v, want %v", top, want)
		}
	}
	if got := c.Snapshot().TopBalancers(100); len(got) != 4 {
		t.Errorf("TopBalancers over-ask returned %d entries, want 4", len(got))
	}
}
