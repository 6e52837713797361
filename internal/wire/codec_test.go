package wire

import (
	"bufio"
	"bytes"
	"net"
	"slices"
	"testing"
)

// benchFrames is a representative mix of serving-path frames: the SC
// request/response pair that dominates loopback traffic plus the batched
// forms the client combiner emits.
func benchFrames() []Frame {
	return []Frame{
		{Type: TInc, ID: 42, Wire: 3},
		{Type: TValue, ID: 42, Value: 123456789},
		{Type: TIncBatch, ID: 43, Wire: 5, K: 512},
		{Type: TRanges, ID: 43, Rs: []Range{
			{First: 1000, Stride: 8, Count: 256},
			{First: 1004, Stride: 8, Count: 256},
		}},
		// The traced shed reply the server's door answers a full mailbox with.
		{Type: TError, ID: 44, Trace: 0xfeedface, Code: CodeBackpressure, Msg: ErrBackpressure.Error()},
	}
}

// TestCodecZeroAllocs: steady-state encode and decode perform zero
// allocations once scratch capacity exists. This is the
// contract the serving hot path is built on; the CI serve-smoke job
// asserts the same property through the benchmarks.
func TestCodecZeroAllocs(t *testing.T) {
	frames := benchFrames()
	var buf []byte
	var dec Frame
	// Warm the buffers to steady-state capacity.
	for i := range frames {
		var err error
		if buf, err = AppendFrame(buf[:0], &frames[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeInto(&dec, buf); err != nil {
			t.Fatal(err)
		}
	}

	for i := range frames {
		f := &frames[i]
		enc, _ := AppendFrame(nil, f)
		if n := testing.AllocsPerRun(100, func() {
			buf, _ = AppendFrame(buf[:0], f)
		}); n != 0 {
			t.Errorf("AppendFrame(%v) allocates %.1f/op", f.Type, n)
		}
		if f.Type == TError {
			continue // decoding copies Msg into a string: the one allocating decode
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := DecodeInto(&dec, enc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("DecodeInto(%v) allocates %.1f/op", f.Type, n)
		}
	}
}

// TestReadFrameIntoZeroAllocs: the streaming reader with recycled frame
// and scratch buffer allocates nothing per frame.
func TestReadFrameIntoZeroAllocs(t *testing.T) {
	// Without the error reply, whose decode allocates its Msg.
	frames := slices.DeleteFunc(benchFrames(), func(f Frame) bool { return f.Type == TError })
	var stream []byte
	for i := range frames {
		var err error
		if stream, err = AppendFrame(stream, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	rd := bytes.NewReader(stream)
	br := bufio.NewReaderSize(rd, 1<<16)
	var f Frame
	var scratch []byte
	// Warm capacity.
	for range frames {
		if err := ReadFrameInto(br, &f, &scratch); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		rd.Reset(stream)
		br.Reset(rd)
		for range frames {
			if err := ReadFrameInto(br, &f, &scratch); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("ReadFrameInto allocates %.2f per stream of %d frames", n, len(frames))
	}
}

// TestDecodeDoesNotAliasInput: a decoded frame must stay intact when the
// buffer it was decoded from is overwritten — the contract that lets the
// server's UDP loop (and any pooled reader) recycle one buffer across
// datagrams. Regression for the serving path's buffer reuse.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	frames := []Frame{
		{Type: TRanges, ID: 9, Rs: []Range{{First: 5, Stride: 2, Count: 9}, {First: 6, Stride: 2, Count: 1}}},
		{Type: TGossipAck, ID: 10, Data: []byte("digest-body-bytes")},
		{Type: TError, ID: 11, Code: CodeBackpressure, Msg: "queue full"},
		{Type: TIncBatch, ID: 12, Wire: 3, K: 77},
	}
	for _, want := range frames {
		enc, err := EncodeFrame(&want)
		if err != nil {
			t.Fatal(err)
		}
		buf := append([]byte(nil), enc...)
		var got Frame
		if _, err := DecodeInto(&got, buf); err != nil {
			t.Fatal(err)
		}
		// Scribble over the source buffer, as an overlapping datagram
		// arriving into a reused read buffer would.
		for i := range buf {
			buf[i] = 0xAA
		}
		if !framesEqual(want, got) {
			t.Fatalf("decoded frame aliased its input buffer:\n  want %+v\n  got  %+v", want, got)
		}
	}
}

// TestDecodeIntoReuse: one Frame recycled across decodes of every type
// carries no state between frames.
func TestDecodeIntoReuse(t *testing.T) {
	seq := []Frame{
		{Type: TRanges, ID: 1, Rs: []Range{{First: 1, Stride: 1, Count: 4}}},
		{Type: TValue, ID: 2, Value: 17},
		{Type: TGossipAck, ID: 3, Data: []byte("abc")},
		{Type: THello, ID: 4},
		{Type: TError, ID: 5, Code: CodeTimeout, Msg: "late"},
		{Type: TRanges, ID: 6, Rs: nil},
	}
	var f Frame
	for _, want := range seq {
		enc, err := EncodeFrame(&want)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeInto(&f, enc); err != nil {
			t.Fatal(err)
		}
		if !framesEqual(want, f) {
			t.Fatalf("reused decode mismatch:\n  want %+v\n  got  %+v", want, f)
		}
	}
}

// TestReadFrameIntoOverSocket: the recycled-reader path works over a real
// connection, not just an in-memory stream.
func TestReadFrameIntoOverSocket(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var buf []byte
		for i := 0; i < 50; i++ {
			f := Frame{Type: TValue, ID: uint64(i), Value: int64(i * 3)}
			buf, _ = AppendFrame(buf[:0], &f)
			if _, err := nc.Write(buf); err != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	var f Frame
	var scratch []byte
	for i := 0; i < 50; i++ {
		if err := ReadFrameInto(br, &f, &scratch); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != TValue || f.ID != uint64(i) || f.Value != int64(i*3) {
			t.Fatalf("frame %d: %+v", i, f)
		}
	}
}
