//go:build linux && (amd64 || arm64)

package packetio

import (
	"encoding/binary"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// resetProbe clears the cached capability verdict so a test can re-run
// the probe under a swapped setsockoptInt seam.
func resetProbe() { segProbe.Store(0) }

// TestSegmentationProbeFakeFail drills the fallback path on a capable
// kernel: a setsockopt that rejects UDP-level options must force
// Segmentation() false and leave every conn on the plain batched path,
// with datagrams still flowing.
func TestSegmentationProbeFakeFail(t *testing.T) {
	orig := setsockoptInt
	defer func() {
		setsockoptInt = orig
		resetProbe()
	}()
	setsockoptInt = func(fd, level, opt, value int) error {
		if level == solUDP {
			return syscall.ENOPROTOOPT
		}
		return orig(fd, level, opt, value)
	}
	resetProbe()
	if Segmentation() {
		t.Fatal("Segmentation() true with a failing setsockopt")
	}
	conns, err := Listen("127.0.0.1:0", Options{GSO: true})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	rx := conns[0]
	defer rx.Close()
	if rx.Segmented() {
		t.Fatal("listen conn segmented despite failed probe")
	}
	tx, err := Dial(rx.LocalAddr().String(), Options{GSO: true})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tx.Close()
	if tx.Segmented() {
		t.Fatal("dial conn segmented despite failed probe")
	}
	// Fallback semantics: a plain datagram still round-trips.
	b := NewBatch(1)
	b.Append([]byte("fallback"))
	if _, err := tx.WriteBatch(b); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	timer := time.AfterFunc(5*time.Second, func() { rx.Close() })
	defer timer.Stop()
	rb := NewBatch(1)
	if _, err := rx.ReadBatch(rb); err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	if string(rb.Packet(0)) != "fallback" || rb.SegSize(0) != 0 {
		t.Fatalf("got %q seg=%d, want plain datagram", rb.Packet(0), rb.SegSize(0))
	}
}

// TestGSORoundTrip sends one GSO super-datagram of 16 equal-stride frames
// and checks every frame arrives exactly once — whether the receive side
// hands them back coalesced (SegSize > 0) or as individual datagrams.
func TestGSORoundTrip(t *testing.T) {
	if !Segmentation() {
		t.Skip("kernel lacks UDP_SEGMENT/UDP_GRO")
	}
	conns, err := Listen("127.0.0.1:0", Options{GSO: true})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	rx := conns[0]
	defer rx.Close()
	if !rx.Segmented() {
		t.Fatal("GRO not engaged despite a passing probe")
	}
	tx, err := Dial(rx.LocalAddr().String(), Options{GSO: true})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tx.Close()
	if !tx.Segmented() {
		t.Fatal("GSO not engaged despite a passing probe")
	}

	const stride, nseg = 64, 16
	b := NewBatch(1)
	ok := b.AppendSegments(func(dst []byte) ([]byte, int) {
		for s := 0; s < nseg; s++ {
			for j := 0; j < stride; j++ {
				dst = append(dst, byte(s))
			}
		}
		return dst, stride
	})
	if !ok {
		t.Fatal("AppendSegments refused a legal packed slot")
	}
	if _, err := tx.WriteBatch(b); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}

	timer := time.AfterFunc(5*time.Second, func() { rx.Close() })
	defer timer.Stop()
	rb := NewBatchSized(MaxBatch, GROSlotSize)
	got := make(map[byte]int)
	for total := 0; total < nseg; {
		n, err := rx.ReadBatch(rb)
		if err != nil {
			t.Fatalf("ReadBatch: %v after %d/%d segments", err, total, nseg)
		}
		for i := 0; i < n; i++ {
			p := rb.Packet(i)
			seg := rb.SegSize(i)
			if seg <= 0 {
				seg = len(p)
			}
			for off := 0; off < len(p); off += seg {
				end := off + seg
				if end > len(p) {
					end = len(p)
				}
				f := p[off:end]
				if len(f) != stride {
					t.Fatalf("segment of %d bytes, want stride %d", len(f), stride)
				}
				for _, c := range f {
					if c != f[0] {
						t.Fatalf("segment mixes frame bytes: % x", f)
					}
				}
				got[f[0]]++
				total++
			}
		}
	}
	for s := 0; s < nseg; s++ {
		if got[byte(s)] != 1 {
			t.Fatalf("frame %d delivered %d times, want exactly once", s, got[byte(s)])
		}
	}
}

// cmsgBytes lays out one control message the way groSegSize reads it on
// a little-endian 64-bit kernel, in a buffer of ctrlSlot bytes.
func cmsgBytes(length uint64, level, typ int32, payload []byte) []byte {
	b := make([]byte, ctrlSlot)
	binary.LittleEndian.PutUint64(b, length)
	binary.LittleEndian.PutUint32(b[8:], uint32(level))
	binary.LittleEndian.PutUint32(b[12:], uint32(typ))
	copy(b[cmsgHdrLen:], payload)
	return b
}

// FuzzGROSegSize: the control-message walk stays inside the control data
// whatever lengths the headers claim, and reads the stride of a
// well-formed leading UDP_GRO message.
func FuzzGROSegSize(f *testing.F) {
	f.Add(cmsgBytes(cmsgHdrLen+4, solUDP, udpGRO, binary.LittleEndian.AppendUint32(nil, 1200)))
	f.Add(cmsgBytes(1<<63|cmsgHdrLen, solUDP, udpGRO, nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		// The kernel hands the walk an 8-byte aligned slot; so does this.
		words := make([]uint64, len(b)/8+1)
		ctrl := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(b))
		copy(ctrl, b)
		got := groSegSize(ctrl)
		if len(b) < cmsgHdrLen+4 {
			return
		}
		n := binary.LittleEndian.Uint64(b)
		level := int32(binary.LittleEndian.Uint32(b[8:]))
		typ := int32(binary.LittleEndian.Uint32(b[12:]))
		if n >= cmsgHdrLen+4 && n <= uint64(len(b)) && level == solUDP && typ == udpGRO {
			if want := int(int32(binary.LittleEndian.Uint32(b[cmsgHdrLen:]))); got != want {
				t.Fatalf("leading UDP_GRO message of stride %d read as %d", want, got)
			}
		}
	})
}
