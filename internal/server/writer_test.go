package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"repro/internal/flightrec"
	"repro/internal/wire"
)

// TestWriter runs writeLoop over one end of an in-memory pipe with its
// queue filled and closed up front, the way Close leaves it: every reply
// must reach the peer as exactly the encoder's bytes, the queued batch in
// one flush unless the byte threshold splits it, with outbound faults
// applied and each traced reply's flush span recorded.
func TestWriter(t *testing.T) {
	const trace = 0xfeedface
	shed := errFrame(7, trace, wire.ErrBackpressure)
	shed.enqNS = 1
	value := outMsg{f: wire.Frame{Type: wire.TValue, ID: 1, Value: 42}}
	ranges := outMsg{f: wire.Frame{Type: wire.TRanges, ID: 2, Rs: []wire.Range{{First: 3, Stride: 4, Count: 5}}}}
	big := outMsg{f: wire.Frame{Type: wire.TGossipAck, ID: 3, Data: make([]byte, flushBytes)}}
	cases := []struct {
		name    string
		faults  wire.FrameFaults
		msgs    []outMsg
		want    []wire.Frame // what the peer reads, in order
		flushes uint64
		spans   int // server_flush spans for the traced shed reply
	}{
		{name: "one reply",
			msgs: []outMsg{value}, want: []wire.Frame{value.f}, flushes: 1},
		{name: "queued replies share one flush",
			msgs: []outMsg{value, ranges, shed}, want: []wire.Frame{value.f, ranges.f, shed.f}, flushes: 1, spans: 1},
		{name: "byte threshold flushes mid-gather",
			msgs: []outMsg{big, value}, want: []wire.Frame{big.f, value.f}, flushes: 2},
		{name: "outbound drop",
			faults: &faultScript{fa: wire.FrameFault{Drop: true}},
			msgs:   []outMsg{value, shed}, want: nil, flushes: 0},
		{name: "outbound duplicate sends the same bytes twice",
			faults: &faultScript{fa: wire.FrameFault{Duplicate: true}},
			msgs:   []outMsg{ranges, shed}, want: []wire.Frame{ranges.f, ranges.f, shed.f, shed.f}, flushes: 1, spans: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr := flightrec.New(16)
			s := New(newLINStub(0, false), Options{Stats: NewStats(0), Flight: fr, Faults: tc.faults})
			t.Cleanup(func() { _ = s.Close() })
			var want []byte
			for i := range tc.want {
				var err error
				if want, err = wire.AppendFrame(want, &tc.want[i]); err != nil {
					t.Fatal(err)
				}
			}
			nc, peer := net.Pipe()
			c := &conn{s: s, nc: nc, out: make(chan outMsg, len(tc.msgs)), dead: make(chan struct{})}
			for _, m := range tc.msgs {
				m.f.Rs = append([]wire.Range(nil), m.f.Rs...) // the writer recycles Rs
				c.out <- m
			}
			close(c.out)
			read := make(chan []byte)
			go func() {
				b, _ := io.ReadAll(peer)
				read <- b
			}()
			s.writerWg.Add(1)
			c.writeLoop()
			_ = nc.Close()
			got := <-read

			if !bytes.Equal(got, want) {
				t.Fatalf("peer read %d bytes, want %d (the encoder's bytes for %d frames)", len(got), len(want), len(tc.want))
			}
			br := bufio.NewReader(bytes.NewReader(got))
			for range tc.want {
				f, err := wire.ReadFrame(br)
				if err != nil {
					t.Fatal(err)
				}
				if f.Type == wire.TError && (f.Trace != trace || !errors.Is(f.Code.Err(), wire.ErrBackpressure)) {
					t.Fatalf("shed reply decoded as %+v, want ErrBackpressure with trace %#x", f, uint64(trace))
				}
			}
			snap := s.Stats().Snapshot()
			if snap.Flushes != tc.flushes || snap.FramesOut != uint64(len(tc.want)) || snap.BytesOut != uint64(len(want)) {
				t.Fatalf("flushes %d, framesOut %d, bytesOut %d; want %d, %d, %d",
					snap.Flushes, snap.FramesOut, snap.BytesOut, tc.flushes, len(tc.want), len(want))
			}
			var spans int
			for _, sp := range fr.Snapshot() {
				if sp.Stage == flightrec.StageServerFlush && sp.Trace == trace {
					spans++
				}
			}
			if spans != tc.spans {
				t.Fatalf("%d flush spans for the traced reply, want %d", spans, tc.spans)
			}
		})
	}
}
