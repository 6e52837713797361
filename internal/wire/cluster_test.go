package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/network"
)

func shape8() network.Shape { return network.Shape{Width: 8, Sinks: 8, Balancers: 80, Depth: 20} }

// rtrip encodes f and decodes it back, failing the test on any error.
func rtrip(t *testing.T, f Frame) Frame {
	t.Helper()
	b, err := EncodeFrame(&f)
	if err != nil {
		t.Fatalf("encode %v: %v", f.Type, err)
	}
	got, n, err := DecodeFrame(b)
	if err != nil {
		t.Fatalf("decode %v: %v", f.Type, err)
	}
	if n != len(b) {
		t.Fatalf("decode %v consumed %d of %d bytes", f.Type, n, len(b))
	}
	return got
}

func TestClusterOpcodesRoundTrip(t *testing.T) {
	rs := []Range{{First: 1 << 40, Stride: 1, Count: 2048}, {First: 7, Stride: 1, Count: 1}}
	for _, f := range []Frame{
		{Type: TGossip, ID: 9, Data: []byte(`{"members":[{"id":1}]}`)},
		{Type: TGossipAck, ID: 9, Data: []byte(`{"members":[]}`)},
		{Type: TGossip, ID: 10}, // empty digest
		{Type: TRangeRequest, ID: 11, Node: 3, K: 2048},
		{Type: TRangeGrant, ID: 11, Rs: rs},
		{Type: TRangeGrant, ID: 12},                  // rejection carries no ranges
		{Type: TRangeRequest, ID: 14, Node: 2, K: 1}, // a LIN sweep of one
	} {
		got := rtrip(t, f)
		want := f
		if want.Data == nil {
			want.Data = []byte{}
		}
		if got.Rs == nil {
			got.Rs = []Range{}
		}
		if want.Rs == nil {
			want.Rs = []Range{}
		}
		if got.Data == nil {
			got.Data = []byte{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", f.Type, got, want)
		}
	}
}

func TestClusterOpcodesAreRequests(t *testing.T) {
	for _, typ := range []Type{TGossip, TRangeRequest} {
		if !typ.IsRequest() {
			t.Errorf("%v should be a request opcode", typ)
		}
		b, err := EncodeFrame(&Frame{Type: typ, ID: 1})
		if err != nil {
			t.Fatalf("encode %v: %v", typ, err)
		}
		if _, _, err := PeekHeader(b); err != nil {
			t.Errorf("PeekHeader rejects %v: %v", typ, err)
		}
	}
	for _, typ := range []Type{TGossipAck, TRangeGrant} {
		if typ.IsRequest() {
			t.Errorf("%v should be a response opcode", typ)
		}
	}
}

// rawFrame builds a frame's bytes by hand, with a valid CRC: what an old
// peer sends for opcodes and flag bits the encoder no longer produces.
func rawFrame(typ Type, flags byte, payload ...byte) []byte {
	b := []byte{magic0, magic1, Version, byte(typ), flags}
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// retiredNodeFlag is the THello flag bit that asked for the retired
// node advertisement.
const retiredNodeFlag = 0x04

// An old peer's THello may still set the retired node-advertisement flag.
// The payload never changed, so it decodes as the plain THello it always
// was, and the server answers it with the plain TShape.
func TestHelloNodeExtensionRequest(t *testing.T) {
	plain, err := EncodeFrame(&Frame{Type: THello, ID: 42})
	if err != nil {
		t.Fatal(err)
	}
	asking := rawFrame(THello, retiredNodeFlag, 42)
	if len(plain) != len(asking) {
		t.Fatalf("old peer's hello is %d bytes, plain is %d", len(asking), len(plain))
	}
	got, n, err := DecodeFrame(asking)
	if err != nil || n != len(asking) {
		t.Fatalf("old peer's hello: consumed %d of %d, %v", n, len(asking), err)
	}
	if want := (Frame{Type: THello, ID: 42}); !framesEqual(got, want) {
		t.Fatalf("old peer's hello decoded as %+v, want %+v", got, want)
	}
}

// oldGrantFrames are one grant RPC as a peer that still carried the
// epoch on grant frames writes it: TRangeRequest id 11, node 1, epoch
// 1025 (term 1, node 1), k 2048, and the TRangeGrant answering it: id
// 11, epoch 1025, one range of 2048 ids at that epoch's stripe base
// (epoch<<34).
func oldGrantFrames() (req, grant []byte) {
	const epoch = 1<<10 | 1
	p := binary.AppendUvarint([]byte{11, 1}, epoch)
	req = rawFrame(TRangeRequest, 0, binary.AppendUvarint(p, 2048)...)
	g := binary.AppendUvarint([]byte{11}, epoch)
	g = binary.AppendVarint(append(g, 1), epoch<<34)
	g = binary.AppendUvarint(append(g, 1), 2048)
	return req, rawFrame(TRangeGrant, 0, g...)
}

// A mixed-version cluster refuses every grant RPC between old and new
// peers. Every epoch is at least 1025, so the decoder meets that uvarint
// where it now expects k (leaving k's bytes trailing) or the range count
// (more ranges than the payload could hold), and either frame fails with
// ErrBadFrame instead of being misread as a grant.
func TestOldGrantLayoutsFailClosed(t *testing.T) {
	req, grant := oldGrantFrames()
	for name, b := range map[string][]byte{"TRangeRequest": req, "TRangeGrant": grant} {
		if f, _, err := DecodeFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("old %s decoded as %+v, %v; want ErrBadFrame", name, f, err)
		}
	}
}

// Opcodes 5 (TSnapshot), 8 (TRangeReturn), 9 (TLinForward) and 19
// (TInfo) are retired: a frame that still carries one fails to decode
// rather than being misread, and the encoder refuses to write one.
func TestRetiredOpcodes(t *testing.T) {
	for _, typ := range []Type{5, 8, 9, 19} {
		b := rawFrame(typ, 0, 9)
		if _, _, err := DecodeFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("opcode %d: decode error %v, want ErrBadFrame", typ, err)
		}
		if _, err := EncodeFrame(&Frame{Type: typ, ID: 9}); !errors.Is(err, ErrBadFrame) {
			t.Errorf("opcode %d: encode error %v, want ErrBadFrame", typ, err)
		}
	}
}

// A TShape without the extension must encode byte-identically to the
// pre-extension layout — old clients keep seeing exactly the bytes they
// always did.
func TestShapeWithoutNodeAdIsPreExtensionLayout(t *testing.T) {
	f := Frame{Type: TShape, ID: 7}
	f.Shape.Width, f.Shape.Sinks, f.Shape.Balancers, f.Shape.Depth = 8, 8, 80, 20
	b, err := EncodeFrame(&f)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the pre-extension encoding by hand: header, plen, id,
	// four shape uvarints, CRC. All values here are single-byte uvarints.
	want := []byte{0x43, 0x4E, 1, byte(TShape), 0, 5, 7, 8, 8, 80, 20}
	if !bytes.Equal(b[:len(b)-4], want) {
		t.Fatalf("plain TShape layout changed:\n got % x\nwant % x", b[:len(b)-4], want)
	}
}

// Interop with a peer that still speaks the retired TShape extension: the
// flag bit alone is ignored, and the extension's node, epoch and ranges
// tail is rejected as trailing bytes, flagged or not, so no shape is ever
// misread.
func TestShapeNodeExtensionInterop(t *testing.T) {
	plain, err := EncodeFrame(&Frame{Type: TShape, ID: 1, Shape: shape8()})
	if err != nil {
		t.Fatal(err)
	}
	payload := plain[headerSize+1 : len(plain)-crcSize]
	got, _, err := DecodeFrame(rawFrame(TShape, retiredNodeFlag, payload...))
	if err != nil || got.Shape != shape8() || got.ID != 1 {
		t.Fatalf("flagged TShape without a tail: %+v, %v", got, err)
	}
	// node 4, epoch 1<<10|4, one range {0, 1, 8}
	tail := append(binary.AppendUvarint([]byte{4}, 1<<10|4), 1, 0, 1, 8)
	ext := append(append([]byte(nil), payload...), tail...)
	for _, flags := range []byte{0, retiredNodeFlag} {
		if _, _, err := DecodeFrame(rawFrame(TShape, flags, ext...)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("flags %#x: extension tail decoded: %v", flags, err)
		}
	}
}
