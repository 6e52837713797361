package server

import (
	"net"
	"testing"
	"time"

	"repro/internal/packetio"
	"repro/internal/wire"
)

// Slow-consumer eviction and the writer's flush timing are tested on
// the simulated clock with exact timing assertions rather than against
// real sockets with wall-clock polling loops, whose outcome depended on
// kernel buffer sizes and scheduler luck: see
// TestSlowConsumerEvictionSimClock and TestPipelinedReplyNotHeldSimClock
// in internal/dst, plus the drain invariant every dst scenario audits
// (Close delivers all pending batched responses).

// TestUDPBufferReuse: datagrams arriving back-to-back into the packet
// loop's single reused read buffer must not corrupt one another — the
// regression test for the wire package's decode-does-not-alias contract
// at the server seam. Every accepted batch must contribute exactly its
// own k.
func TestUDPBufferReuse(t *testing.T) {
	st := NewStats(0)
	s, _, _ := startServer(t, 4, Options{Stats: st, Mailbox: 1 << 12})
	uaddr, err := s.ListenPacket("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.Dial("udp", uaddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	// Vary sizes so consecutive datagrams overlap differently in the
	// reused buffer; send with no pacing to maximize back-to-back reads.
	var want int64
	var buf []byte
	const n = 64
	for i := 1; i <= n; i++ {
		f := wire.Frame{Type: wire.TIncBatch, ID: uint64(i), Wire: int64(i % 4), K: int64(i)}
		want += int64(i)
		buf, err = wire.AppendFrame(buf[:0], &f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pc.Write(buf); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Issued() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	snap := st.Snapshot()
	if snap.UDPRejected != 0 {
		t.Fatalf("udpRejected = %d; reused read buffer corrupted frames", snap.UDPRejected)
	}
	if got := s.Issued(); got > want {
		t.Fatalf("issued %d > expected %d: corrupted batch sizes", got, want)
	} else if snap.UDPDropped == 0 && got != want {
		t.Fatalf("issued %d, want %d (no datagrams were shed)", got, want)
	}

	// Segmented phase: segments of one GRO super share a single slot as
	// adjacent subslices, and GRO-sized slots sit side by side in one
	// ring — both seams must not alias. Distinct K per segment makes any
	// bleed change the total; the CRC catches any byte-level corruption.
	base := s.Issued()
	pi := s.NewPacketIngest()
	gb := packetio.NewBatchSized(4, packetio.GROSlotSize)
	var segWant int64
	for slot := 0; slot < 4; slot++ {
		frames := make([]*wire.Frame, 16)
		for i := range frames {
			k := int64(1 + (slot*16+i)%7)
			frames[i] = &wire.Frame{
				Type: wire.TIncBatch,
				ID:   uint64(0x1000 + slot*16 + i),
				Wire: int64(i % 4),
				K:    k,
			}
			segWant += k
		}
		appendSuper(t, gb, 0, 0, frames...)
	}
	pi.IngestBatch(gb)
	waitIssued(t, s, base+segWant)
	snap = st.Snapshot()
	if snap.UDPRejected != 0 {
		t.Fatalf("udpRejected = %d; segment views corrupted one another (%v)", snap.UDPRejected, snap.UDPRejects)
	}
	if got := s.Issued(); got != base+segWant {
		t.Fatalf("issued %d, want %d: segments aliased across slot or stride boundaries", got, base+segWant)
	}
}
