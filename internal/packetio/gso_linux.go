//go:build linux && (amd64 || arm64)

// UDP segmentation offload plumbing: the runtime capability probe and the
// control-message encode/decode for UDP_SEGMENT (send stride) and UDP_GRO
// (receive stride). Like sys_linux.go this leans on the frozen syscall
// package, so the UDP-level option numbers — which postdate the freeze —
// are defined locally, and cmsg headers are built/parsed by hand against
// the 64-bit layout rather than through the allocating stdlib helpers:
// the ingest path must stay allocation-free per datagram.
package packetio

import (
	"sync/atomic"
	"syscall"
	"unsafe"
)

const (
	solUDP     = 17  // setsockopt/cmsg level IPPROTO_UDP
	udpSegment = 103 // UDP_SEGMENT: split one send into equal-size datagrams (linux ≥ 4.18)
	udpGRO     = 104 // UDP_GRO: coalesce equal-size datagrams on receive (linux ≥ 5.0)
)

const (
	// cmsgHdrLen is sizeof(struct cmsghdr) on 64-bit Linux: a uint64
	// length plus two int32s, no padding.
	cmsgHdrLen = 16
	// ctrlSlot is the per-slot control buffer size: one cmsg with the
	// 2-byte (send) or 4-byte (receive) stride payload needs 24 bytes
	// after alignment; 64 leaves room for the kernel to append more.
	ctrlSlot = 64
)

// cmsgHdr mirrors struct cmsghdr on 64-bit Linux.
type cmsgHdr struct {
	Len   uint64
	Level int32
	Type  int32
}

// cmsgAlign rounds n up to the 8-byte cmsg alignment of 64-bit Linux.
func cmsgAlign(n int) int { return (n + 7) &^ 7 }

// putSegmentCmsg writes a UDP_SEGMENT control message declaring seg-byte
// on-wire datagrams into ctrl and returns the control length to hand to
// sendmmsg. ctrl must be 8-byte aligned and at least ctrlSlot long.
func putSegmentCmsg(ctrl []byte, seg int) int {
	h := (*cmsgHdr)(unsafe.Pointer(&ctrl[0]))
	h.Len = cmsgHdrLen + 2
	h.Level = solUDP
	h.Type = udpSegment
	*(*uint16)(unsafe.Pointer(&ctrl[cmsgHdrLen])) = uint16(seg)
	return cmsgAlign(cmsgHdrLen + 2)
}

// groSegSize walks the control messages the kernel attached to one
// received datagram and returns the UDP_GRO segment stride, or 0 when
// the datagram was not coalesced.
func groSegSize(ctrl []byte) int {
	off := 0
	for off+cmsgHdrLen <= len(ctrl) {
		h := (*cmsgHdr)(unsafe.Pointer(&ctrl[off]))
		// Compared as uint64: a length with its top bit set would turn
		// negative as an int and pass the bounds check.
		if h.Len < cmsgHdrLen || h.Len > uint64(len(ctrl)-off) {
			return 0 // malformed or truncated control data
		}
		if h.Level == solUDP && h.Type == udpGRO && int(h.Len) >= cmsgHdrLen+4 {
			return int(*(*int32)(unsafe.Pointer(&ctrl[off+cmsgHdrLen])))
		}
		off += cmsgAlign(int(h.Len))
	}
	return 0
}

// setsockoptInt is a seam over syscall.SetsockoptInt: the capability-probe
// tests swap in a failing implementation to drill the fallback path.
var setsockoptInt = func(fd, level, opt, value int) error {
	return syscall.SetsockoptInt(fd, level, opt, value)
}

// segProbe caches the one-shot kernel probe: 0 unprobed, 1 supported,
// -1 unsupported.
var segProbe atomic.Int32

func segmentationOS() bool {
	if v := segProbe.Load(); v != 0 {
		return v > 0
	}
	v := int32(-1)
	if probeSegmentation() {
		v = 1
	}
	segProbe.Store(v)
	return v > 0
}

// probeSegmentation asks a throwaway UDP socket for both halves of the
// segmentation offload. Either setsockopt failing (ENOPROTOOPT on
// kernels before UDP_SEGMENT/UDP_GRO landed) disables the feature for
// the whole process — send and receive fall back together so a node
// never half-speaks the segmented framing.
func probeSegmentation() bool {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return false
	}
	defer syscall.Close(fd)
	if setsockoptInt(fd, solUDP, udpSegment, 0) != nil {
		return false
	}
	return setsockoptInt(fd, solUDP, udpGRO, 1) == nil
}
