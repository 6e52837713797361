package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
)

// decodeFrameV0 is the pre-trace-extension decoder (PR 4-6 layout),
// kept verbatim so interop tests can stand in for an old peer: header
// is exactly five bytes, flags bit 1 is ignored, and the payload-length
// uvarint starts at offset 5 unconditionally.
func decodeFrameV0(b []byte) (Frame, int, error) {
	var f Frame
	if len(b) < headerSize {
		return f, 0, ErrTruncated
	}
	if b[0] != magic0 || b[1] != magic1 {
		return f, 0, ErrBadMagic
	}
	if b[2] != Version {
		return f, 0, fmt.Errorf("%w: %d", ErrBadVersion, b[2])
	}
	f.Type = Type(b[3])
	if b[4]&flagLIN != 0 {
		f.Mode = ModeLIN
	}
	plen, n := binary.Uvarint(b[headerSize:])
	if n == 0 {
		return f, 0, ErrTruncated
	}
	if n < 0 || plen > MaxPayload {
		return f, 0, ErrTooBig
	}
	total := headerSize + n + int(plen) + crcSize
	if len(b) < total {
		return f, 0, ErrTruncated
	}
	body := b[:total-crcSize]
	want := binary.LittleEndian.Uint32(b[total-crcSize : total])
	if crc32.Checksum(body, castagnoli) != want {
		return f, 0, ErrCRC
	}
	if err := parsePayload(&f, b[headerSize+n:total-crcSize]); err != nil {
		return f, 0, err
	}
	return f, total, nil
}

// TestTraceRoundTrip: frames carrying a trace id survive the buffer
// codec and the streaming reader for every type, and the trace rides
// the header (same payload bytes, 9 extra header bytes: flag + id).
func TestTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		f := randFrame(rng)
		f.Trace = rng.Uint64() | 1
		enc, err := EncodeFrame(&f)
		if err != nil {
			t.Fatalf("encode %+v: %v", f, err)
		}
		got, n, err := DecodeFrame(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("decode %+v: n=%d err=%v", f, n, err)
		}
		if !framesEqual(f, got) {
			t.Fatalf("trace round trip:\n  want %+v\n  got  %+v", f, got)
		}
		fs, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil || !framesEqual(f, fs) {
			t.Fatalf("stream trace round trip: %+v vs %+v (err %v)", f, fs, err)
		}

		// The extension is exactly 8 header bytes plus the flag bit: the
		// untraced encoding of the same frame is the traced one with the
		// flag cleared and the id spliced out.
		u := f
		u.Trace = 0
		plain, err := EncodeFrame(&u)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != len(plain)+traceSize {
			t.Fatalf("traced frame is %d bytes, untraced %d (want +%d)", len(enc), len(plain), traceSize)
		}
	}
}

// TestTraceOldClientNewServer: frames from an old peer (no trace
// extension, five-byte header) decode identically on the new decoder —
// both synthesized through the untraced encoder (whose output is
// byte-identical to the old layout) and from a pinned golden frame.
func TestTraceOldClientNewServer(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		f := randFrame(rng)
		f.Trace = 0
		enc, err := EncodeFrame(&f)
		if err != nil {
			t.Fatal(err)
		}
		old, n0, err0 := decodeFrameV0(enc)
		cur, n1, err1 := DecodeFrame(enc)
		if err0 != nil || err1 != nil || n0 != n1 || !framesEqual(old, cur) {
			t.Fatalf("old/new decoders disagree on untraced bytes: %+v vs %+v (err %v/%v)", old, cur, err0, err1)
		}
	}

	// Golden: TInc id=7 wire=3, LIN, as PR 4-6 encoded it. Pins the
	// untraced layout independent of the current encoder.
	golden := []byte{magic0, magic1, Version, byte(TInc), flagLIN, 2, 7, 6}
	golden = binary.LittleEndian.AppendUint32(golden, crc32.Checksum(golden, castagnoli))
	f, n, err := DecodeFrame(golden)
	if err != nil || n != len(golden) {
		t.Fatalf("golden untraced frame rejected: n=%d err=%v", n, err)
	}
	if f.Type != TInc || f.ID != 7 || f.Wire != 3 || f.Mode != ModeLIN || f.Trace != 0 {
		t.Fatalf("golden untraced frame decoded to %+v", f)
	}
}

// TestTraceNewClientOldServer: a new client with sampling off (the
// default) emits bytes an old server accepts — byte-identical to the
// old layout. A *traced* frame is rejected by the old decoder with a
// hard error (never silently misparsed): enabling sampling is an
// operator opt-in that requires upgraded servers, and the CRC guarantees
// the failure mode is a dropped connection, not corrupt counting.
func TestTraceNewClientOldServer(t *testing.T) {
	f := Frame{Type: TIncBatch, ID: 99, Wire: 2, K: 64}
	plain, err := EncodeFrame(&f)
	if err != nil {
		t.Fatal(err)
	}
	old, n, err := decodeFrameV0(plain)
	if err != nil || n != len(plain) || !framesEqual(f, old) {
		t.Fatalf("old server rejects new client's untraced frame: %+v err=%v", old, err)
	}

	f.Trace = 0xdeadbeefcafe
	traced, err := EncodeFrame(&f)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeFrameV0(traced); err == nil {
		t.Fatal("old decoder silently accepted a traced frame")
	}
}

// TestTraceCorruption: corrupting any byte of the trace-id field fails
// the CRC; truncating inside it reports a short frame, and a stream cut
// inside it reports io.ErrUnexpectedEOF.
func TestTraceCorruption(t *testing.T) {
	f := Frame{Type: TInc, ID: 11, Wire: 1, Trace: 0x0102030405060708}
	enc, err := EncodeFrame(&f)
	if err != nil {
		t.Fatal(err)
	}
	for off := headerSize; off < headerSize+traceSize; off++ {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x40
		if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrCRC) {
			t.Fatalf("corrupt trace byte %d: got %v, want ErrCRC", off, err)
		}
	}
	for cut := headerSize; cut < headerSize+traceSize; cut++ {
		if _, _, err := DecodeFrame(enc[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncated at %d: got %v, want ErrTruncated", cut, err)
		}
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc[:cut])))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream cut at %d: got %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}
