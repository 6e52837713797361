package server

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

// bareConn is a conn with no socket and no writer: a test hands frames
// straight to process and reads the replies off the out queue.
func bareConn(s *Server) *conn {
	return &conn{s: s, out: make(chan outMsg, 8), dead: make(chan struct{})}
}

// nextReply waits for c's next queued reply and returns it as a client
// decodes it, through the one encoder the writer uses.
func nextReply(t *testing.T, c *conn) wire.Frame {
	t.Helper()
	select {
	case m := <-c.out:
		b, err := wire.AppendFrame(nil, &m.f)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := wire.DecodeFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no reply queued")
		return wire.Frame{}
	}
}

// oldPeerHello is the THello an old cluster client sent: the plain frame
// with the retired node-advertisement flag bit 0x04 set, decoded as the
// reader decodes it.
func oldPeerHello(t *testing.T, id uint64) wire.Frame {
	t.Helper()
	b, err := wire.EncodeFrame(&wire.Frame{Type: wire.THello, ID: id})
	if err != nil {
		t.Fatal(err)
	}
	b[4] |= 0x04
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	f, _, err := wire.DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDoor drives process — the reader's decision for one frame — with no
// socket: every request type, every refusal, and the shed reply a full
// mailbox gets, each answered with its id and trace echoed.
func TestDoor(t *testing.T) {
	const trace = 0xfeedface
	shape := newLINStub(0, false).Shape()
	cases := []struct {
		name string
		opt  Options
		full bool // wedge the sweeper and fill the one-slot mailbox first
		in   wire.Frame
		want wire.Frame // Msg is not compared
		err  error      // TError replies: the sentinel the code maps back to
	}{
		{name: "hello",
			in:   wire.Frame{Type: wire.THello, ID: 1},
			want: wire.Frame{Type: wire.TShape, ID: 1, Shape: shape}},
		{name: "hello with node ad", // an old peer sets the retired flag 0x04
			in:   oldPeerHello(t, 2),
			want: wire.Frame{Type: wire.TShape, ID: 2, Shape: shape}},
		{name: "read",
			in:   wire.Frame{Type: wire.TRead, ID: 3, Trace: trace},
			want: wire.Frame{Type: wire.TValue, ID: 3, Trace: trace}},
		{name: "inc is posted and swept",
			in:   wire.Frame{Type: wire.TInc, ID: 5, Wire: 2, Trace: trace},
			want: wire.Frame{Type: wire.TValue, ID: 5, Trace: trace}},
		{name: "lin inc is posted and swept",
			in:   wire.Frame{Type: wire.TIncBatch, ID: 6, Wire: 1, K: 3, Mode: wire.ModeLIN},
			want: wire.Frame{Type: wire.TRanges, ID: 6, Rs: []wire.Range{{First: 0, Stride: 1, Count: 3}}}},
		{name: "empty batch is answered at the door",
			full: true,
			in:   wire.Frame{Type: wire.TIncBatch, ID: 7, K: 0, Trace: trace},
			want: wire.Frame{Type: wire.TRanges, ID: 7, Trace: trace}},
		{name: "bad wire",
			in:   wire.Frame{Type: wire.TInc, ID: 8, Wire: 4, Trace: trace},
			want: wire.Frame{Type: wire.TError, ID: 8, Trace: trace, Code: wire.CodeBadWire},
			err:  wire.ErrBadWire},
		{name: "not a request",
			in:   wire.Frame{Type: wire.TValue, ID: 9},
			want: wire.Frame{Type: wire.TError, ID: 9, Code: wire.CodeBadRequest},
			err:  wire.ErrBadFrame},
		{name: "peer opcode without a cluster node",
			in:   wire.Frame{Type: wire.TGossip, ID: 12, Data: []byte{1}},
			want: wire.Frame{Type: wire.TError, ID: 12, Code: wire.CodeBadRequest},
			err:  wire.ErrBadFrame},
		{name: "peer opcode goes to the LIN backend's handler",
			opt:  Options{LIN: &peerStub{linStub: newLINStub(0, false)}},
			in:   wire.Frame{Type: wire.TRangeRequest, ID: 13, Trace: trace, Node: 2, K: 5},
			want: wire.Frame{Type: wire.TRangeGrant, ID: 13, Trace: trace, Rs: []wire.Range{{First: 0, Stride: 1, Count: 5}}}},
		{name: "full mailbox sheds",
			full: true,
			in:   wire.Frame{Type: wire.TInc, ID: 10, Trace: trace},
			want: wire.Frame{Type: wire.TError, ID: 10, Trace: trace, Code: wire.CodeBackpressure},
			err:  wire.ErrBackpressure},
		{name: "full mailbox sheds lin",
			full: true,
			in:   wire.Frame{Type: wire.TIncBatch, ID: 11, K: 2, Mode: wire.ModeLIN, Trace: trace},
			want: wire.Frame{Type: wire.TError, ID: 11, Trace: trace, Code: wire.CodeBackpressure},
			err:  wire.ErrBackpressure},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			be := newLINStub(0, tc.full)
			opt := tc.opt
			if tc.full {
				opt.Mailbox = 1
			}
			s := New(be, opt)
			t.Cleanup(func() { _ = s.Close() })
			if tc.full {
				t.Cleanup(func() { close(be.gate) }) // runs before Close
				s.mail <- req{k: 1, enq: s.clk.Now()}
				awaitEntered(t, be)
				s.mail <- req{k: 1, enq: s.clk.Now()}
			}
			c := bareConn(s)
			c.process(&tc.in)
			got := nextReply(t, c)
			if tc.err != nil && !errors.Is(got.Code.Err(), tc.err) {
				t.Fatalf("error reply %+v does not map back to %v", got, tc.err)
			}
			got.Msg = ""
			if len(got.Rs) == 0 {
				got.Rs = nil
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("reply\n  got  %+v\n  want %+v", got, tc.want)
			}
			select {
			case m := <-c.out:
				t.Fatalf("second reply %+v", m.f)
			default:
			}
		})
	}
}

// peerStub is a LIN backend that also answers peer opcodes, as a cluster
// node does: a TRangeRequest for k ids is granted ids 0..k-1.
type peerStub struct{ *linStub }

func (p *peerStub) HandlePeer(f *wire.Frame) wire.Frame {
	return wire.Frame{Type: wire.TRangeGrant, Rs: []wire.Range{{First: 0, Stride: 1, Count: f.K}}}
}

// faultScript injects one fixed fault on every frame and logs each
// consultation's direction and sequence number.
type faultScript struct {
	fa    wire.FrameFault
	calls [][2]int // inbound (1) or not (0), seq
}

func (f *faultScript) Frame(conn int, inbound bool, seq int) wire.FrameFault {
	in := 0
	if inbound {
		in = 1
	}
	f.calls = append(f.calls, [2]int{in, seq})
	return f.fa
}

// TestFaultSeam drives the one transport seam both of a connection's
// loops consult: how many times a frame goes through, which counter each
// fault bumps, and one sequence per direction.
func TestFaultSeam(t *testing.T) {
	cases := []struct {
		name  string
		fa    *wire.FrameFault // nil: no Options.Faults
		times int
		stats [3]uint64 // dropped, duplicated, delayed
	}{
		{name: "no faults", times: 1},
		{name: "clean frame", fa: &wire.FrameFault{}, times: 1},
		{name: "drop", fa: &wire.FrameFault{Drop: true}, times: 0, stats: [3]uint64{1, 0, 0}},
		{name: "duplicate", fa: &wire.FrameFault{Duplicate: true}, times: 2, stats: [3]uint64{0, 1, 0}},
		{name: "drop beats duplicate", fa: &wire.FrameFault{Drop: true, Duplicate: true}, times: 0, stats: [3]uint64{1, 1, 0}},
		{name: "delay", fa: &wire.FrameFault{Delay: time.Millisecond}, times: 1, stats: [3]uint64{0, 0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{Stats: NewStats(0)}
			var script *faultScript
			if tc.fa != nil {
				script = &faultScript{fa: *tc.fa}
				opt.Faults = script
			}
			s := New(newLINStub(0, false), opt)
			t.Cleanup(func() { _ = s.Close() })
			c := bareConn(s)
			for i, inbound := range []bool{true, false, true} {
				if got := c.faults(inbound); got != tc.times {
					t.Fatalf("call %d: frame goes through %d times, want %d", i, got, tc.times)
				}
			}
			snap := s.Stats().Snapshot()
			got := [3]uint64{snap.FaultDropped, snap.FaultDuplicated, snap.FaultDelayed}
			want := [3]uint64{3 * tc.stats[0], 3 * tc.stats[1], 3 * tc.stats[2]}
			if got != want {
				t.Fatalf("fault counters (dropped, duplicated, delayed) %v, want %v", got, want)
			}
			if script != nil {
				if want := [][2]int{{1, 0}, {0, 0}, {1, 1}}; !reflect.DeepEqual(script.calls, want) {
					t.Fatalf("consultations (inbound, seq) %v, want %v", script.calls, want)
				}
			}
		})
	}

	t.Run("close cuts a delay short", func(t *testing.T) {
		s := New(newLINStub(0, false), Options{Faults: &faultScript{fa: wire.FrameFault{Delay: time.Hour}}})
		c := bareConn(s)
		done := make(chan int)
		go func() { done <- c.faults(true) }()
		_ = s.Close()
		select {
		case n := <-done:
			if n != 1 {
				t.Fatalf("delayed frame goes through %d times, want 1", n)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not cut the injected delay short")
		}
	})
}

// TestServeConnAfterClose: a connection that arrives once Close has begun
// is closed, not registered, so it cannot keep a reader Close never
// unblocks.
func TestServeConnAfterClose(t *testing.T) {
	s := New(newLINStub(0, false), Options{Stats: NewStats(0)})
	before, peer := net.Pipe()
	if !s.serveConn(before) {
		t.Fatal("serveConn refused a connection before Close")
	}
	// The peer never hangs up: Close must unblock the reader itself.
	closed := make(chan struct{})
	go func() { _ = s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a registered connection's reader")
	}
	_ = peer.Close()

	after, peer := net.Pipe()
	if s.serveConn(after) {
		t.Fatal("serveConn registered a connection after Close")
	}
	if _, err := peer.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("refused connection's peer read %v, want EOF", err)
	}
	if n, total := len(s.conns), s.Stats().Snapshot().ConnsTotal; n != 1 || total != 1 {
		t.Fatalf("%d connections registered, connsTotal %d; want only the one from before Close", n, total)
	}
}
