package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
)

// randFrame draws a random well-formed frame of any type.
func randFrame(rng *rand.Rand) Frame {
	types := []Type{TInc, TIncBatch, TRead, THello, TValue, TRanges, TShape, TGossipAck, TError}
	f := Frame{
		Type: types[rng.Intn(len(types))],
		Mode: Mode(rng.Intn(2)),
		ID:   rng.Uint64() >> uint(rng.Intn(64)),
	}
	// A quarter of frames carry the sampled-trace header extension.
	if rng.Intn(4) == 0 {
		f.Trace = rng.Uint64() | 1 // nonzero: zero means untraced
	}
	switch f.Type {
	case TInc:
		f.Wire = rng.Int63n(1<<40) - 1<<39
	case TIncBatch:
		f.Wire = rng.Int63n(1<<40) - 1<<39
		f.K = rng.Int63n(1 << 20)
	case TValue:
		f.Value = rng.Int63() - rng.Int63()
	case TRanges:
		n := rng.Intn(8)
		f.Rs = make([]Range, n)
		for i := range f.Rs {
			f.Rs[i] = Range{
				First:  rng.Int63n(1 << 50),
				Stride: rng.Int63n(64) + 1,
				Count:  rng.Int63n(1 << 16),
			}
		}
		if n == 0 {
			f.Rs = []Range{}
		}
	case TShape:
		f.Shape = network.Shape{
			Width:     rng.Intn(1 << 16),
			Sinks:     rng.Intn(1 << 16),
			Balancers: rng.Intn(1 << 20),
			Depth:     rng.Intn(1 << 10),
		}
	case TGossipAck:
		f.Data = make([]byte, rng.Intn(256))
		rng.Read(f.Data)
	case TError:
		f.Code = ErrCode(rng.Intn(5) + 1)
		b := make([]byte, rng.Intn(64))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		f.Msg = string(b)
	}
	return f
}

func framesEqual(a, b Frame) bool {
	if a.Type != b.Type || a.Mode != b.Mode || a.ID != b.ID || a.Trace != b.Trace ||
		a.Wire != b.Wire || a.K != b.K || a.Value != b.Value ||
		a.Shape != b.Shape || a.Code != b.Code || a.Msg != b.Msg {
		return false
	}
	if len(a.Rs) != len(b.Rs) {
		return false
	}
	for i := range a.Rs {
		if a.Rs[i] != b.Rs[i] {
			return false
		}
	}
	return bytes.Equal(a.Data, b.Data)
}

// TestRoundTrip: randomized frames encode and decode to themselves, both
// through the buffer API and the streaming reader.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		f := randFrame(rng)
		enc, err := EncodeFrame(&f)
		if err != nil {
			t.Fatalf("encode %+v: %v", f, err)
		}
		got, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", f, err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if !framesEqual(f, got) {
			t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", f, got)
		}
	}
}

// TestStreamRoundTrip: many frames back to back through a bufio stream.
func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	var want []Frame
	for i := 0; i < 200; i++ {
		f := randFrame(rng)
		enc, err := EncodeFrame(&f)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(enc)
		want = append(want, f)
	}
	br := bufio.NewReader(&buf)
	for i, w := range want {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !framesEqual(w, got) {
			t.Fatalf("frame %d mismatch:\n  in  %+v\n  out %+v", i, w, got)
		}
	}
	if _, err := ReadFrame(br); !errors.Is(err, io.EOF) {
		t.Fatalf("want clean EOF at stream end, got %v", err)
	}
}

// TestDecodeRejectsCorruption: flipping any single bit of an encoded frame
// must not decode to the original frame — either the CRC (or a structural
// check) rejects it, or it decodes to a *different* well-formed frame
// (possible only in theory for CRC collisions, which a single bit flip
// cannot produce).
func TestDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		f := randFrame(rng)
		enc, err := EncodeFrame(&f)
		if err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < len(enc)*8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[bit/8] ^= 1 << (bit % 8)
			got, n, err := DecodeFrame(mut)
			if err == nil && n == len(mut) && framesEqual(f, got) {
				t.Fatalf("bit flip %d went undetected (frame %+v)", bit, f)
			}
		}
	}
}

// TestDecodeRejectsTruncation: every strict prefix of a frame reports
// ErrTruncated (ask for more bytes), never a bogus success.
func TestDecodeRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		f := randFrame(rng)
		enc, err := EncodeFrame(&f)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(enc); n++ {
			if _, _, err := DecodeFrame(enc[:n]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("prefix %d/%d: want ErrTruncated, got %v", n, len(enc), err)
			}
			if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc[:n]))); err == nil {
				t.Fatalf("stream prefix %d/%d decoded", n, len(enc))
			}
		}
	}
}

// TestDecodeRejectsGarbage: bad magic, bad version, absurd length claims.
func TestDecodeRejectsGarbage(t *testing.T) {
	f := Frame{Type: TInc, ID: 7, Wire: 3}
	enc, _ := EncodeFrame(&f)

	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic: got %v", err)
	}

	bad = append([]byte(nil), enc...)
	bad[2] = 99
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version: got %v", err)
	}

	// A length claim beyond MaxPayload must be rejected before allocation.
	huge := []byte{magic0, magic1, Version, byte(TInc), 0, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrTooBig) {
		t.Fatalf("huge length: got %v", err)
	}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(huge))); !errors.Is(err, ErrTooBig) {
		t.Fatalf("huge length (stream): got %v", err)
	}
}

// TestErrorCodeMapping: sentinels survive the code round trip.
func TestErrorCodeMapping(t *testing.T) {
	for _, err := range []error{ErrBadWire, ErrBackpressure, fault.ErrTimeout, fault.ErrClosed} {
		if got := CodeOf(err).Err(); !errors.Is(got, err) {
			t.Errorf("CodeOf(%v).Err() = %v", err, got)
		}
	}
	if CodeOf(errors.New("misc")) != CodeBadRequest {
		t.Error("unknown errors should map to CodeBadRequest")
	}
}

// TestModeFlag: the consistency mode rides the flags byte.
func TestModeFlag(t *testing.T) {
	for _, m := range []Mode{ModeSC, ModeLIN} {
		f := Frame{Type: TInc, ID: 1, Wire: 0, Mode: m}
		enc, _ := EncodeFrame(&f)
		got, _, err := DecodeFrame(enc)
		if err != nil || got.Mode != m {
			t.Fatalf("mode %v: got %v err %v", m, got.Mode, err)
		}
	}
	if _, err := ParseMode("lin"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMode("eventual"); err == nil {
		t.Fatal("ParseMode accepted junk")
	}
}

// TestPeekHeader: the UDP admission filter agrees with the full decoder on
// every random well-formed request frame and rejects prefix garbage with
// the right sentinel, without ever claiming a frame the decoder would not
// at least attempt.
func TestPeekHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		f := randFrame(rng)
		enc, err := EncodeFrame(&f)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		typ, mode, err := PeekHeader(enc)
		if f.Type.IsRequest() {
			if err != nil {
				t.Fatalf("peek of valid request %v: %v", f.Type, err)
			}
			if typ != f.Type || mode != f.Mode {
				t.Fatalf("peek %v/%v, want %v/%v", typ, mode, f.Type, f.Mode)
			}
		} else if err == nil {
			t.Fatalf("peek admitted response frame %v", f.Type)
		}
	}

	valid, _ := EncodeFrame(&Frame{Type: TInc, ID: 1, Wire: 0})
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short", valid[:4], ErrTruncated},
		{"one byte under minimum", valid[:len(valid)-1], nil}, // still ≥ min: peek cannot tell
		{"bad magic", append([]byte{0x58}, valid[1:]...), ErrBadMagic},
		{"bad version", append(append([]byte{}, valid[:2]...), append([]byte{9}, valid[3:]...)...), ErrBadVersion},
		{"response type", append(append([]byte{}, valid[:3]...), append([]byte{byte(TValue)}, valid[4:]...)...), ErrBadFrame},
		{"unknown type", append(append([]byte{}, valid[:3]...), append([]byte{0xEE}, valid[4:]...)...), ErrBadFrame},
	}
	for _, c := range cases {
		_, _, err := PeekHeader(c.b)
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: peek = %v, want accept", c.name, err)
			}
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: peek = %v, want %v", c.name, err, c.want)
		}
	}

	// A traced frame needs eight more prefix bytes before peek admits it.
	traced, _ := EncodeFrame(&Frame{Type: TInc, ID: 1, Wire: 0, Trace: 42})
	if _, _, err := PeekHeader(traced); err != nil {
		t.Fatalf("traced peek: %v", err)
	}
	if _, _, err := PeekHeader(traced[:headerSize+traceSize]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short traced peek = %v, want ErrTruncated", err)
	}
}

// TestBatchSizeBound: every K-bearing frame carries K = maxK both ways,
// and K = maxK+1 is refused by the encoder, leaving dst as it was, and
// rejected by the decoder, so one bound holds on both sides.
func TestBatchSizeBound(t *testing.T) {
	for _, typ := range []Type{TIncBatch, TRangeRequest} {
		f := Frame{Type: typ, ID: 9, Wire: 2, Node: 3, K: maxK}
		enc, err := EncodeFrame(&f)
		if err != nil {
			t.Fatalf("%v: encode K=maxK: %v", typ, err)
		}
		got, _, err := DecodeFrame(enc)
		if err != nil || got.K != maxK {
			t.Fatalf("%v: decode K=maxK: K=%d err=%v", typ, got.K, err)
		}

		for _, k := range []int64{-1, maxK + 1} {
			f.K = k
			prefix := []byte("keep")
			if out, err := AppendFrame(prefix, &f); !errors.Is(err, ErrBadFrame) || string(out) != "keep" {
				t.Errorf("%v: encode K=%d: %q, %v; want dst unchanged and ErrBadFrame", typ, k, out, err)
			}
		}

		// The decoder's half, on bytes the encoder would not write.
		f.K = maxK + 1
		payload := appendPayload(nil, &f)
		raw := binary.AppendUvarint([]byte{magic0, magic1, Version, byte(typ), 0}, uint64(len(payload)))
		raw = append(raw, payload...)
		raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(raw, castagnoli))
		if _, _, err := DecodeFrame(raw); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%v: decode K=maxK+1: got %v, want ErrBadFrame", typ, err)
		}
	}
}
