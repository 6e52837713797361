package wire

import (
	"bufio"
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder: it must
// never panic, never claim to consume more bytes than it was given, and
// anything it accepts must re-encode to an identical decode (a canonical
// frame). Run with `go test -fuzz FuzzDecodeFrame ./internal/wire`.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: one well-formed frame of every type, a couple of
	// randomized ones, plus classic troublemakers.
	rng := rand.New(rand.NewSource(42))
	seeds := []Frame{
		{Type: TInc, ID: 1, Wire: 3, Mode: ModeLIN},
		{Type: TIncBatch, ID: 2, Wire: -9, K: 1024},
		{Type: TRead, ID: 3},
		{Type: THello, ID: 4},
		{Type: TValue, ID: 6, Value: -1},
		{Type: TRanges, ID: 7, Rs: []Range{{First: 5, Stride: 8, Count: 128}, {First: 6, Stride: 8, Count: 1}}},
		{Type: TError, ID: 8, Code: CodeBackpressure, Msg: "queue full"},
		{Type: TGossipAck, ID: 9, Data: []byte(`{"ok":true}`)},
		// Trace-extension corpus: sampled frames of the shapes the
		// serving path actually emits.
		{Type: TInc, ID: 10, Wire: 1, Trace: 0x1122334455667788},
		{Type: TIncBatch, ID: 11, Wire: 2, K: 64, Mode: ModeLIN, Trace: 1},
		{Type: TRanges, ID: 12, Trace: ^uint64(0), Rs: []Range{{First: 3, Stride: 4, Count: 2}}},
		{Type: TError, ID: 13, Trace: 0xcafe, Code: CodeTimeout, Msg: "late"},
		randFrame(rng),
		randFrame(rng),
	}
	for i := range seeds {
		enc, err := EncodeFrame(&seeds[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Retired numbers: an old peer's stats query (opcode 5), its range
	// return (opcode 8: id, node, epoch, one range {0, 1, 8}), its LIN
	// forward (opcode 9: id, wire 6, k 3, epoch), and its THello asking
	// for the node advertisement (flag bit 0x04).
	f.Add(rawFrame(5, 0, 5))
	f.Add(rawFrame(8, 0, 8, 2, 1, 1, 0, 1, 8))
	f.Add(rawFrame(9, flagLIN, 9, 12, 3, 1))
	f.Add(rawFrame(THello, retiredNodeFlag, 4))
	// An old peer's grant RPC, which still carried the epoch.
	req, grant := oldGrantFrames()
	f.Add(req)
	f.Add(grant)
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, Version})
	f.Add([]byte{magic0, magic1, Version, byte(TInc), 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Accepted frames must be canonical: re-encoding and re-decoding
		// yields the same frame.
		enc, err := EncodeFrame(&fr)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v (%+v)", err, fr)
		}
		fr2, n2, err := DecodeFrame(enc)
		if err != nil || n2 != len(enc) || !framesEqual(fr, fr2) {
			t.Fatalf("accepted frame is not canonical: %+v vs %+v (err %v)", fr, fr2, err)
		}
		// The streaming reader must agree with the buffer decoder.
		fr3, err := ReadFrame(bufio.NewReader(bytes.NewReader(data[:n])))
		if err != nil || !framesEqual(fr, fr3) {
			t.Fatalf("stream decode disagrees: %+v vs %+v (err %v)", fr, fr3, err)
		}
	})
}
