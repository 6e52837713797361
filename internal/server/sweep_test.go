package server

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// stripeBackend hands out k values as two strided ranges, the evens then
// the odds of [next, next+k) for even next, the way a width-2 network's
// sinks would, so a sweep must split its ranges across requests.
type stripeBackend struct{ next int64 }

func (b *stripeBackend) Shape() network.Shape { return network.Shape{Width: 2, Sinks: 2} }

func (b *stripeBackend) Mint(dst []runtime.Range, w, k int) ([]runtime.Range, error) {
	evens, odds := int64(k+1)/2, int64(k)/2
	dst = append(dst, runtime.Range{First: b.next, Stride: 2, Count: evens}, runtime.Range{First: b.next + 1, Stride: 2, Count: odds})
	b.next += int64(k)
	return dst, nil
}

// TestSweep drives one sweep with no socket and no sweeper goroutine:
// expiry, the deal in arrival order across the backend's ranges, fire-and-
// forget posts, and a failed mint, each reply checked as a client decodes
// it.
func TestSweep(t *testing.T) {
	const trace = 0xfeedface
	type post struct {
		udp   bool // fire-and-forget: no connection, no reply
		folds uint32
		k     int64
		batch bool
		lin   bool
		trace uint64
		stale bool // sat in the mailbox past OpTimeout
	}
	cases := []struct {
		name   string
		fail   bool // the backend's mint fails with wire.ErrNoRange
		posts  []post
		want   []wire.Frame // per post; the zero Frame: no reply
		err    []error      // per post: the sentinel a TError reply maps back to
		issued int64
		stats  [3]uint64 // timeouts, udpDropped, sweepTokens
	}{
		{name: "deal in arrival order across ranges",
			posts: []post{{k: 1}, {k: 4, batch: true, trace: trace}, {udp: true, folds: 2, k: 2}, {k: 1, batch: true, lin: true}},
			want: []wire.Frame{
				{Type: wire.TValue, ID: 0, Value: 0},
				{Type: wire.TRanges, ID: 1, Trace: trace, Rs: []wire.Range{{First: 2, Stride: 2, Count: 3}, {First: 1, Stride: 2, Count: 1}}},
				{},
				{Type: wire.TRanges, ID: 3, Rs: []wire.Range{{First: 7, Stride: 2, Count: 1}}},
			},
			issued: 8, stats: [3]uint64{0, 0, 8}},
		{name: "stale posts expire",
			posts: []post{{k: 1}, {k: 2, batch: true, lin: true, trace: trace, stale: true}, {udp: true, folds: 3, k: 3, stale: true}},
			want: []wire.Frame{
				{Type: wire.TValue, ID: 0, Value: 0},
				{Type: wire.TError, ID: 1, Trace: trace, Code: wire.CodeTimeout},
				{},
			},
			err:    []error{nil, fault.ErrTimeout, nil},
			issued: 1, stats: [3]uint64{4, 0, 1}},
		{name: "all stale: no backend call",
			posts:  []post{{k: 1, stale: true}, {k: 1, stale: true}},
			want:   []wire.Frame{{Type: wire.TError, ID: 0, Code: wire.CodeTimeout}, {Type: wire.TError, ID: 1, Code: wire.CodeTimeout}},
			err:    []error{fault.ErrTimeout, fault.ErrTimeout},
			issued: 0, stats: [3]uint64{2, 0, 0}},
		{name: "failed mint sheds the whole sweep",
			fail:  true,
			posts: []post{{k: 1, trace: trace}, {k: 2, batch: true}, {udp: true, folds: 2, k: 2}},
			want: []wire.Frame{
				{Type: wire.TError, ID: 0, Trace: trace, Code: wire.CodeNoRange},
				{Type: wire.TError, ID: 1, Code: wire.CodeNoRange},
				{},
			},
			err:    []error{wire.ErrNoRange, wire.ErrNoRange, nil},
			issued: 0, stats: [3]uint64{0, 2, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var be Backend = &stripeBackend{}
			if tc.fail {
				m := newMintStub(2)
				m.fail.Store(true)
				be = m
			}
			sim := clock.NewSim()
			opt := Options{Stats: NewStats(0), OpTimeout: 10 * time.Millisecond, Clock: sim}
			s := &Server{shape: be.Shape(), opt: opt.withDefaults(), clk: sim}
			conns := make([]*conn, len(tc.posts))
			pending := make([]req, len(tc.posts))
			for i, p := range tc.posts {
				r := req{id: uint64(i), k: p.k, folds: p.folds, batch: p.batch, trace: p.trace, enq: sim.Now()}
				if !p.udp {
					conns[i] = bareConn(s)
					r.c = conns[i]
				}
				if p.lin {
					r.mode = 1
				}
				if p.stale {
					r.enq = sim.Now().Add(-20 * time.Millisecond)
				}
				pending[i] = r
			}
			(&sweeper{s: s, be: be}).sweep(pending)

			for i, c := range conns {
				if c == nil {
					continue
				}
				var m outMsg
				select {
				case m = <-c.out:
				default:
					t.Fatalf("post %d got no reply", i)
				}
				// A traced reply starts its flush span at enqNS; a failed
				// mint's reply records none.
				if m.f.Trace != 0 && !tc.fail && (m.enqNS == 0 || m.mode != pending[i].mode) {
					t.Fatalf("traced reply %d carries enqNS %d, mode %d: no flush span would be recorded", i, m.enqNS, m.mode)
				}
				b, err := wire.AppendFrame(nil, &m.f)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := wire.DecodeFrame(b)
				if err != nil {
					t.Fatal(err)
				}
				if tc.err != nil && tc.err[i] != nil && !errors.Is(got.Code.Err(), tc.err[i]) {
					t.Fatalf("post %d: error reply %+v does not map back to %v", i, got, tc.err[i])
				}
				got.Msg = ""
				if !reflect.DeepEqual(got, tc.want[i]) {
					t.Fatalf("post %d reply\n  got  %+v\n  want %+v", i, got, tc.want[i])
				}
			}
			if got := s.Issued(); got != tc.issued {
				t.Fatalf("issued %d, want %d", got, tc.issued)
			}
			snap := s.Stats().Snapshot()
			if got := [3]uint64{snap.Timeouts, snap.UDPDropped, snap.SweepTokens}; got != tc.stats {
				t.Fatalf("(timeouts, udpDropped, sweepTokens) %v, want %v", got, tc.stats)
			}
		})
	}
}

// TestCombineBatchLimit: the sweeper's loop gathers what is queued up to
// BatchLimit per sweep, one backend call each, and exits once its closed
// mailbox is drained.
func TestCombineBatchLimit(t *testing.T) {
	for _, tc := range []struct {
		limit int
		calls [][2]int // (wire, k) per backend call
	}{
		{1, [][2]int{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {0, 1}}},
		{2, [][2]int{{0, 2}, {2, 2}, {0, 1}}},
		{8, [][2]int{{0, 5}}},
	} {
		rec := &recordingBackend{shape: network.Shape{Width: 4, Sinks: 4}}
		s := &Server{shape: rec.Shape(), opt: Options{BatchLimit: tc.limit}.withDefaults(), clk: clock.Or(nil)}
		mail := make(chan req, 5)
		for i := 0; i < 5; i++ {
			mail <- req{wire: i % 4, k: 1, enq: s.clk.Now()}
		}
		close(mail)
		s.combWg.Add(1)
		s.combine(mail, rec)
		if !reflect.DeepEqual(rec.calls, tc.calls) {
			t.Fatalf("BatchLimit %d: backend calls %v, want %v", tc.limit, rec.calls, tc.calls)
		}
		if s.Issued() != 5 {
			t.Fatalf("BatchLimit %d: issued %d, want 5", tc.limit, s.Issued())
		}
	}
}
