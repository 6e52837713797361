// Package wire is the binary protocol of the networked counting service:
// the frame format spoken between cmd/countd (internal/server) and
// internal/client over TCP and UDP.
//
// A frame is a fixed five-byte header, a varint-length-prefixed payload,
// and a CRC:
//
//	offset  size  field
//	0       2     magic 0x43 0x4E ("CN")
//	2       1     protocol version (currently 1)
//	3       1     frame type (TInc, TIncBatch, ...)
//	4       1     flags (bit 0: consistency mode, 0 = SC, 1 = LIN;
//	              bit 1: traced — an 8-byte trace id follows the flags)
//	5       0|8   trace id (little-endian, present iff bit 1 of flags)
//	...     1-10  payload length (uvarint)
//	...     n     payload (per-type varint fields, see below)
//	...     4     CRC-32C (little-endian) over everything before it
//
// Payloads are varint-packed: unsigned fields (request ids, counts) are
// uvarints, fields that may be negative (wire ids, counter values) are
// zigzag varints. Every payload starts with the request id, so responses
// can be matched to pipelined requests in any order:
//
//	TInc          id, wire               →  TValue  id, value
//	TIncBatch     id, wire, k            →  TRanges id, n, n×(first, stride, count)
//	TRead         id                     →  TValue  id, issued
//	THello        id                     →  TShape  id, width, sinks, balancers, depth
//	TGossip       id, len, bytes (JSON)  →  TGossipAck  id, len, bytes (JSON)
//	TRangeRequest id, node, k            →  TRangeGrant id, ranges
//	any           —                      →  TError  id, code, len, message
//
// The mode flag rides on every request frame: SC requests may be answered
// with purely local latency, LIN requests must be answered in real-time
// order — the protocol-level form of the paper's
// sequentially-consistent-versus-linearizable tradeoff. A single node
// meets both with one sweeper; a cluster grants each LIN sweep from its
// leader's frontier. The cluster opcodes (TGossip, TRangeRequest) are
// spoken between countd nodes (internal/cluster) and ride each node's
// serving door; they reuse the same framing and CRC discipline as the
// client-facing protocol.
//
// The trace extension (flag bit 1) is backward compatible by
// construction: a frame with Frame.Trace == 0 encodes to exactly the
// pre-extension bytes, and a peer that never sets the flag never emits
// the extra header bytes. A sampled request carries a nonzero trace id;
// the server echoes it on the response so both sides of the RPC record
// stage spans under one id (internal/flightrec).
//
// Retired numbers stay out of reuse and nothing is renumbered: opcodes 5
// (TSnapshot, a stats query whose JSON /metrics serves), 8
// (TRangeReturn, a leaving node's unminted remainder handed back to the
// leader; a leaving node now burns it), 9 (the LIN forward, a LIN sweep
// minted from a block the leader kept for LIN; a LIN sweep is now a
// TRangeRequest for exactly its k) and 19 (TInfo, the stats reply), and
// flag bit 2 (0x04, the THello node advertisement that appended node
// id, epoch and owned ranges to the TShape reply). A frame with opcode
// 5, 8, 9 or 19 fails to decode with ErrBadFrame; the decoder ignores flag bit
// 2, so an old peer's THello that sets it is answered with the plain
// TShape.
//
// Grant frames carry no epoch: the leader fences a grant with its own
// lease, and a grant lies inside its epoch's id stripe, which names the
// epoch. A peer that still writes the older layout (TRangeRequest id,
// node, epoch, k; TRangeGrant id, epoch, ranges) is never misread:
// every epoch is at least 1025, so its frames fail to decode with
// ErrBadFrame, and this layout's request is a field short for it. In a
// mixed-version cluster each grant RPC between old and new nodes is
// refused: the requester burns the ids it had carved or sheds the sweep
// with a retryable error, and no id is granted twice.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/network"
)

// Protocol constants.
const (
	Version = 1 // current protocol version

	magic0, magic1 = 0x43, 0x4E // "CN"

	headerSize = 5
	traceSize  = 8 // trace-id extension bytes (present iff flagTraced)
	crcSize    = 4

	// MaxPayload bounds a frame's payload; DecodeFrame rejects larger
	// claims before allocating, so a corrupt length cannot balloon memory.
	MaxPayload = 1 << 20
)

// castagnoli is the CRC-32C table shared by every encode/decode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Mode is a request's consistency mode — the protocol knob the paper's
// contrast becomes once tokens arrive over a network.
type Mode uint8

const (
	// ModeSC asks for sequentially consistent counting: the server may
	// coalesce the increment with others and answer from the batched sweep.
	ModeSC Mode = 0
	// ModeLIN asks for linearizable counting: the increment's value must
	// lie above every value handed out before it was sent. It may still be
	// coalesced, but only with increments it overlaps.
	ModeLIN Mode = 1
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeLIN {
		return "lin"
	}
	return "sc"
}

// ParseMode parses "sc" or "lin".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "sc", "SC":
		return ModeSC, nil
	case "lin", "LIN":
		return ModeLIN, nil
	}
	return ModeSC, fmt.Errorf("wire: unknown consistency mode %q (want sc or lin)", s)
}

// Type is a frame's opcode. Opcodes 5, 8, 9 and 19 are retired: never
// reuse them (see the package doc).
type Type uint8

const (
	// Requests.
	TInc      Type = 1 // obtain one counter value from a wire
	TIncBatch Type = 2 // reserve k values from a wire in one sweep
	TRead     Type = 3 // read the number of values the server handed out
	THello    Type = 4 // ask for the served network's shape

	// Cluster requests (node-to-node, on the serving door).
	TGossip       Type = 6 // membership exchange: opaque digest (JSON)
	TRangeRequest Type = 7 // ask the leader for k fresh ids from its frontier

	// Responses.
	TValue      Type = 16 // one value (answers TInc and TRead)
	TRanges     Type = 17 // value ranges (answers TIncBatch)
	TShape      Type = 18 // network shape (answers THello)
	TError      Type = 20 // typed failure for any request
	TGossipAck  Type = 21 // responder's merged digest (answers TGossip)
	TRangeGrant Type = 22 // epoch-fenced id block (answers TRangeRequest)
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TInc:
		return "inc"
	case TIncBatch:
		return "incbatch"
	case TRead:
		return "read"
	case THello:
		return "hello"
	case TValue:
		return "value"
	case TRanges:
		return "ranges"
	case TShape:
		return "shape"
	case TError:
		return "error"
	case TGossip:
		return "gossip"
	case TRangeRequest:
		return "rangereq"
	case TGossipAck:
		return "gossipack"
	case TRangeGrant:
		return "rangegrant"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// IsRequest reports whether t lies in the client-to-server opcode range
// (retired 5 included; DecodeInto rejects it).
func (t Type) IsRequest() bool { return t >= TInc && t <= TRangeRequest }

// flag bits. 0x04 is retired (the THello node advertisement): decoders
// ignore it, and it is never reused.
const (
	flagLIN    = 0x01 // consistency mode: 0 = SC, 1 = LIN
	flagTraced = 0x02 // an 8-byte trace id follows the flags byte
)

// maxK bounds K, the increment count of a TIncBatch or TRangeRequest:
// the encoder refuses a frame above it, the decoder rejects one.
const maxK = 1 << 32

// Decode failures: the frame bytes themselves are unusable.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrTruncated  = errors.New("wire: truncated frame")
	ErrCRC        = errors.New("wire: frame CRC mismatch")
	ErrBadFrame   = errors.New("wire: malformed frame payload")
	ErrTooBig     = errors.New("wire: frame payload exceeds limit")
)

// Service failures: the frame was fine, the request was not. These travel
// as TError frames with an ErrCode and come back out as these sentinels
// (or the shared fault-package ones), so errors.Is works end to end.
var (
	// ErrBadWire reports a request naming an input wire outside the served
	// network's topology (wire < 0 or wire ≥ width).
	ErrBadWire = errors.New("wire: input wire outside network width")
	// ErrBackpressure reports a request the server refused because its
	// request queue was full — retry after backoff.
	ErrBackpressure = errors.New("wire: server queue full")
	// ErrNotLeader reports a cluster request that needed the leader's
	// serialization point but reached a node that is not (or no longer)
	// the leader, or cannot reach one — retry, on another endpoint.
	ErrNotLeader = errors.New("wire: node is not the cluster leader")
	// ErrNoRange reports a mint the node had to refuse because it owns no
	// unminted id range and could not obtain one — retry after backoff.
	ErrNoRange = errors.New("wire: node owns no unminted id range")
)

// ErrCode is a service failure's code on the wire.
type ErrCode uint8

const (
	CodeBadRequest   ErrCode = 1
	CodeBadWire      ErrCode = 2
	CodeBackpressure ErrCode = 3
	CodeTimeout      ErrCode = 4
	CodeClosed       ErrCode = 5
	CodeNotLeader    ErrCode = 6
	CodeNoRange      ErrCode = 7
)

// Err converts a code back into its sentinel error.
func (c ErrCode) Err() error {
	switch c {
	case CodeBadWire:
		return ErrBadWire
	case CodeBackpressure:
		return ErrBackpressure
	case CodeTimeout:
		return fault.ErrTimeout
	case CodeClosed:
		return fault.ErrClosed
	case CodeBadRequest:
		return ErrBadFrame
	case CodeNotLeader:
		return ErrNotLeader
	case CodeNoRange:
		return ErrNoRange
	}
	return fmt.Errorf("wire: server error code %d", uint8(c))
}

// CodeOf maps an error onto its wire code (CodeBadRequest for anything
// unrecognised).
func CodeOf(err error) ErrCode {
	switch {
	case errors.Is(err, ErrBadWire):
		return CodeBadWire
	case errors.Is(err, ErrBackpressure):
		return CodeBackpressure
	case errors.Is(err, fault.ErrTimeout):
		return CodeTimeout
	case errors.Is(err, fault.ErrClosed):
		return CodeClosed
	case errors.Is(err, ErrNotLeader):
		return CodeNotLeader
	case errors.Is(err, ErrNoRange):
		return CodeNoRange
	}
	return CodeBadRequest
}

// Range mirrors runtime.Range on the wire: an arithmetic progression of
// counter values (First, First+Stride, ..., First+(Count-1)*Stride).
type Range struct {
	First  int64
	Stride int64
	Count  int64
}

// Frame is one decoded protocol frame. Which fields are meaningful depends
// on Type; unset fields are zero.
type Frame struct {
	Type Type
	Mode Mode
	ID   uint64

	// Trace is the sampled distributed-tracing context: zero means the
	// request is untraced (and the frame encodes to the pre-extension
	// byte layout); nonzero rides the header's trace extension and is
	// echoed by the server on the response.
	Trace uint64

	Wire  int64         // TInc, TIncBatch
	K     int64         // TIncBatch, TRangeRequest (at most maxK)
	Value int64         // TValue
	Rs    []Range       // TRanges, TRangeGrant
	Shape network.Shape // TShape
	Code  ErrCode       // TError
	Msg   string        // TError
	Data  []byte        // TGossip, TGossipAck
	Node  uint64        // TRangeRequest: the minting node id
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the encoded size of v as a zigzag varint.
func varintLen(v int64) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// payloadSize computes the exact encoded payload length of f without
// encoding anything, and carries all of the encoder's validation, so
// AppendFrame can write straight into the caller's buffer with no
// intermediate payload allocation.
func payloadSize(f *Frame) (int, error) {
	n := uvarintLen(f.ID)
	switch f.Type {
	case TInc:
		n += varintLen(f.Wire)
	case TIncBatch:
		if f.K < 0 || f.K > maxK {
			return 0, fmt.Errorf("%w: batch size %d", ErrBadFrame, f.K)
		}
		n += varintLen(f.Wire) + uvarintLen(uint64(f.K))
	case TRead, THello:
		// id only
	case TValue:
		n += varintLen(f.Value)
	case TRanges, TRangeGrant:
		rn, err := rangesSize(f.Rs)
		if err != nil {
			return 0, err
		}
		n += rn
	case TShape:
		n += uvarintLen(uint64(f.Shape.Width)) + uvarintLen(uint64(f.Shape.Sinks)) +
			uvarintLen(uint64(f.Shape.Balancers)) + uvarintLen(uint64(f.Shape.Depth))
	case TGossip, TGossipAck:
		n += uvarintLen(uint64(len(f.Data))) + len(f.Data)
	case TError:
		n += uvarintLen(uint64(f.Code)) + uvarintLen(uint64(len(f.Msg))) + len(f.Msg)
	case TRangeRequest:
		if f.K < 0 || f.K > maxK {
			return 0, fmt.Errorf("%w: range request %d", ErrBadFrame, f.K)
		}
		n += uvarintLen(f.Node) + uvarintLen(uint64(f.K))
	default:
		return 0, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, f.Type)
	}
	return n, nil
}

// rangesSize is the encoded size of a range vector (count + triples),
// carrying the encoder-side validation for every range-bearing frame.
func rangesSize(rs []Range) (int, error) {
	n := uvarintLen(uint64(len(rs)))
	for _, r := range rs {
		if r.Stride < 0 || r.Count < 0 {
			return 0, fmt.Errorf("%w: negative range stride/count", ErrBadFrame)
		}
		n += varintLen(r.First) + uvarintLen(uint64(r.Stride)) + uvarintLen(uint64(r.Count))
	}
	return n, nil
}

// AppendFrame encodes f and appends the bytes to dst. The payload is
// sized first (payloadSize) and written directly into dst, so steady-state
// encoding into a buffer with capacity performs zero allocations
// (TestCodecZeroAllocs / BenchmarkWireEncode assert it).
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	psize, err := payloadSize(f)
	if err != nil {
		return dst, err
	}
	if psize > MaxPayload {
		return dst, ErrTooBig
	}
	start := len(dst)
	flags := byte(0)
	if f.Mode == ModeLIN {
		flags |= flagLIN
	}
	if f.Trace != 0 {
		flags |= flagTraced
	}
	dst = append(dst, magic0, magic1, Version, byte(f.Type), flags)
	if f.Trace != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, f.Trace)
	}
	dst = binary.AppendUvarint(dst, uint64(psize))
	dst = appendPayload(dst, f)
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}

// EncodeFrame encodes f into a fresh buffer.
func EncodeFrame(f *Frame) ([]byte, error) { return AppendFrame(nil, f) }

// appendPayload writes f's per-type payload fields. Validation already
// happened in payloadSize; this only emits bytes.
func appendPayload(p []byte, f *Frame) []byte {
	p = binary.AppendUvarint(p, f.ID)
	switch f.Type {
	case TInc:
		p = binary.AppendVarint(p, f.Wire)
	case TIncBatch:
		p = binary.AppendVarint(p, f.Wire)
		p = binary.AppendUvarint(p, uint64(f.K))
	case TRead, THello:
		// id only
	case TValue:
		p = binary.AppendVarint(p, f.Value)
	case TRanges, TRangeGrant:
		p = appendRanges(p, f.Rs)
	case TShape:
		p = binary.AppendUvarint(p, uint64(f.Shape.Width))
		p = binary.AppendUvarint(p, uint64(f.Shape.Sinks))
		p = binary.AppendUvarint(p, uint64(f.Shape.Balancers))
		p = binary.AppendUvarint(p, uint64(f.Shape.Depth))
	case TGossip, TGossipAck:
		p = binary.AppendUvarint(p, uint64(len(f.Data)))
		p = append(p, f.Data...)
	case TRangeRequest:
		p = binary.AppendUvarint(p, f.Node)
		p = binary.AppendUvarint(p, uint64(f.K))
	case TError:
		p = binary.AppendUvarint(p, uint64(f.Code))
		p = binary.AppendUvarint(p, uint64(len(f.Msg)))
		p = append(p, f.Msg...)
	}
	return p
}

// appendRanges writes a range vector (count + triples). Validation already
// happened in rangesSize.
func appendRanges(p []byte, rs []Range) []byte {
	p = binary.AppendUvarint(p, uint64(len(rs)))
	for _, r := range rs {
		p = binary.AppendVarint(p, r.First)
		p = binary.AppendUvarint(p, uint64(r.Stride))
		p = binary.AppendUvarint(p, uint64(r.Count))
	}
	return p
}

// PeekHeader validates the fixed prefix of a frame — magic, version, a
// known request opcode, and enough bytes to plausibly hold the smallest
// complete encoding — and reports the frame's type and consistency mode
// without touching the payload or the CRC. It is the admission filter for
// the high-rate UDP ingest path: garbage and truncated datagrams are
// rejected after reading five bytes, so only frames that look real pay
// for the full CRC-32C decode. PeekHeader accepting a frame promises
// nothing about the rest of it; DecodeInto remains the arbiter.
func PeekHeader(b []byte) (Type, Mode, error) {
	min := headerSize + 1 + crcSize // header + empty-payload uvarint + CRC
	if len(b) >= headerSize && b[4]&flagTraced != 0 {
		min += traceSize
	}
	if len(b) < min {
		return 0, ModeSC, ErrTruncated
	}
	if b[0] != magic0 || b[1] != magic1 {
		return 0, ModeSC, ErrBadMagic
	}
	if b[2] != Version {
		return 0, ModeSC, fmt.Errorf("%w: %d", ErrBadVersion, b[2])
	}
	t := Type(b[3])
	if !t.IsRequest() {
		return 0, ModeSC, fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, uint8(b[3]))
	}
	mode := ModeSC
	if b[4]&flagLIN != 0 {
		mode = ModeLIN
	}
	return t, mode, nil
}

// DecodeFrame decodes the first frame in b, returning it and the number of
// bytes consumed. A short buffer returns ErrTruncated (read more and call
// again); any other error means the stream is unsynchronized and the
// connection should be dropped.
func DecodeFrame(b []byte) (Frame, int, error) {
	var f Frame
	n, err := DecodeInto(&f, b)
	return f, n, err
}

// DecodeInto decodes the first frame in b into f, reusing f's Rs and Data
// capacity so steady-state decoding into a recycled Frame performs zero
// allocations. Every other field of f is reset first.
//
// Aliasing contract: the decoded frame never aliases b — range values are
// parsed out, Msg is copied into a string, and Data is copied into f's own
// buffer — so callers may reuse or overwrite b immediately (the server's
// UDP read loop decodes every datagram out of one recycled buffer on the
// strength of this; TestDecodeDoesNotAliasInput pins it).
func DecodeInto(f *Frame, b []byte) (int, error) {
	*f = Frame{Rs: f.Rs[:0], Data: f.Data[:0]}
	if len(b) < headerSize {
		return 0, ErrTruncated
	}
	if b[0] != magic0 || b[1] != magic1 {
		return 0, ErrBadMagic
	}
	if b[2] != Version {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, b[2])
	}
	f.Type = Type(b[3])
	if b[4]&flagLIN != 0 {
		f.Mode = ModeLIN
	}
	hdr := headerSize
	if b[4]&flagTraced != 0 {
		if len(b) < headerSize+traceSize {
			return 0, ErrTruncated
		}
		f.Trace = binary.LittleEndian.Uint64(b[headerSize:])
		hdr += traceSize
	}
	plen, n := binary.Uvarint(b[hdr:])
	if n == 0 {
		return 0, ErrTruncated
	}
	if n < 0 || plen > MaxPayload {
		return 0, ErrTooBig
	}
	total := hdr + n + int(plen) + crcSize
	if len(b) < total {
		return 0, ErrTruncated
	}
	body := b[:total-crcSize]
	want := binary.LittleEndian.Uint32(b[total-crcSize : total])
	if crc32.Checksum(body, castagnoli) != want {
		return 0, ErrCRC
	}
	if err := parsePayload(f, b[hdr+n:total-crcSize]); err != nil {
		return 0, err
	}
	return total, nil
}

// parsePayload fills f's typed fields from the payload bytes; the whole
// payload must be consumed.
func parsePayload(f *Frame, p []byte) error {
	var err error
	if f.ID, p, err = getUvarint(p); err != nil {
		return err
	}
	switch f.Type {
	case TInc:
		f.Wire, p, err = getVarint(p)
	case TIncBatch:
		if f.Wire, p, err = getVarint(p); err == nil {
			var k uint64
			if k, p, err = getUvarint(p); err == nil {
				if k > maxK {
					return fmt.Errorf("%w: batch size %d", ErrBadFrame, k)
				}
				f.K = int64(k)
			}
		}
	case TRead, THello:
	case TValue:
		f.Value, p, err = getVarint(p)
	case TRanges, TRangeGrant:
		if p, err = parseRanges(f, p); err != nil {
			return err
		}
	case TShape:
		var w, s, nb, d uint64
		if w, p, err = getUvarint(p); err != nil {
			return err
		}
		if s, p, err = getUvarint(p); err != nil {
			return err
		}
		if nb, p, err = getUvarint(p); err != nil {
			return err
		}
		if d, p, err = getUvarint(p); err != nil {
			return err
		}
		const lim = 1 << 30
		if w > lim || s > lim || nb > lim || d > lim {
			return fmt.Errorf("%w: absurd shape", ErrBadFrame)
		}
		f.Shape = network.Shape{Width: int(w), Sinks: int(s), Balancers: int(nb), Depth: int(d)}
	case TRangeRequest:
		if f.Node, p, err = getUvarint(p); err != nil {
			return err
		}
		var k uint64
		if k, p, err = getUvarint(p); err == nil {
			if k > maxK {
				return fmt.Errorf("%w: range request %d", ErrBadFrame, k)
			}
			f.K = int64(k)
		}
	case TGossip, TGossipAck:
		var n uint64
		if n, p, err = getUvarint(p); err != nil {
			return err
		}
		if n != uint64(len(p)) {
			return fmt.Errorf("%w: data length %d vs %d", ErrBadFrame, n, len(p))
		}
		f.Data = append(f.Data[:0], p...)
		p = nil
	case TError:
		var code, n uint64
		if code, p, err = getUvarint(p); err != nil {
			return err
		}
		if code == 0 || code > 255 {
			return fmt.Errorf("%w: error code %d", ErrBadFrame, code)
		}
		f.Code = ErrCode(code)
		if n, p, err = getUvarint(p); err != nil {
			return err
		}
		if n != uint64(len(p)) {
			return fmt.Errorf("%w: message length %d vs %d", ErrBadFrame, n, len(p))
		}
		f.Msg = string(p)
		p = nil
	default:
		return fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, f.Type)
	}
	if err != nil {
		return err
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, len(p))
	}
	return nil
}

// parseRanges reads a range vector (count + triples) into f.Rs, reusing
// its capacity, and returns the remaining payload bytes.
func parseRanges(f *Frame, p []byte) ([]byte, error) {
	n, p, err := getUvarint(p)
	if err != nil {
		return p, err
	}
	// Each range is at least 3 payload bytes; reject count claims the
	// remaining payload cannot possibly hold.
	if n > uint64(len(p)) {
		return p, fmt.Errorf("%w: %d ranges in %d bytes", ErrBadFrame, n, len(p))
	}
	if cap(f.Rs) >= int(n) {
		f.Rs = f.Rs[:n]
	} else {
		f.Rs = make([]Range, n)
	}
	for i := range f.Rs {
		var s, c uint64
		if f.Rs[i].First, p, err = getVarint(p); err != nil {
			return p, err
		}
		if s, p, err = getUvarint(p); err != nil {
			return p, err
		}
		if c, p, err = getUvarint(p); err != nil {
			return p, err
		}
		f.Rs[i].Stride, f.Rs[i].Count = int64(s), int64(c)
		if f.Rs[i].Stride < 0 || f.Rs[i].Count < 0 {
			return p, fmt.Errorf("%w: range overflow", ErrBadFrame)
		}
	}
	return p, nil
}

func getUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, fmt.Errorf("%w: bad uvarint", ErrBadFrame)
	}
	return v, p[n:], nil
}

func getVarint(p []byte) (int64, []byte, error) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, p, fmt.Errorf("%w: bad varint", ErrBadFrame)
	}
	return v, p[n:], nil
}

// ReadFrame reads one frame from a buffered stream, verifying the CRC. It
// returns io.EOF cleanly only at a frame boundary; a connection cut inside
// a frame returns io.ErrUnexpectedEOF.
func ReadFrame(br *bufio.Reader) (Frame, error) {
	var f Frame
	var scratch []byte
	err := ReadFrameInto(br, &f, &scratch)
	return f, err
}

// ReadFrameInto reads one frame from a buffered stream into f, reusing
// both f's capacity (see DecodeInto) and *scratch as the raw-byte staging
// buffer, so a long-lived reader loop performs zero steady-state
// allocations. *scratch is grown as needed and handed back with its
// (possibly larger) capacity; the decoded frame does not alias it.
func ReadFrameInto(br *bufio.Reader, f *Frame, scratch *[]byte) error {
	// The header is read byte-wise on the concrete reader: an io.ReadFull
	// into a stack array would force the array to escape (one allocation
	// per frame, exactly what this path exists to avoid).
	var raw [headerSize + traceSize + binary.MaxVarintLen64]byte
	hdr := headerSize
	for i := 0; i < headerSize; i++ {
		c, err := br.ReadByte()
		if err != nil {
			if i == 0 {
				return err // clean EOF at a frame boundary
			}
			return unexpected(err)
		}
		raw[i] = c
	}
	if raw[4]&flagTraced != 0 {
		hdr += traceSize
		for i := headerSize; i < hdr; i++ {
			c, err := br.ReadByte()
			if err != nil {
				return unexpected(err)
			}
			raw[i] = c
		}
	}
	n := hdr
	// Read the payload-length uvarint byte by byte, keeping the raw bytes
	// for the CRC.
	plen := uint64(0)
	for shift := 0; ; shift += 7 {
		if shift >= 64 || n == len(raw) {
			return ErrTooBig
		}
		c, err := br.ReadByte()
		if err != nil {
			return unexpected(err)
		}
		raw[n] = c
		n++
		plen |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
	}
	if plen > MaxPayload {
		return ErrTooBig
	}
	total := n + int(plen) + crcSize
	if cap(*scratch) < total {
		*scratch = make([]byte, total)
	}
	buf := (*scratch)[:total]
	copy(buf, raw[:n])
	if _, err := io.ReadFull(br, buf[n:]); err != nil {
		return unexpected(err)
	}
	consumed, err := DecodeInto(f, buf)
	if err != nil {
		return err
	}
	if consumed != len(buf) {
		return ErrBadFrame
	}
	return nil
}

func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
