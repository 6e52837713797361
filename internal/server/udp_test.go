package server

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/construct"
	"repro/internal/flightrec"
	"repro/internal/packetio"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// newIngestServer builds a server with no listeners for driving the UDP
// admission path directly through PacketIngest — deterministic: no kernel
// sockets, no loss, no reordering beyond what the test itself injects.
func newIngestServer(t testing.TB, width int, opt Options) *Server {
	t.Helper()
	rt := runtime.MustCompile(construct.MustBitonic(width))
	s := New(rt, opt)
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// appendFrame encodes f into the batch's next slot in place.
func appendFrame(t testing.TB, b *packetio.Batch, f *wire.Frame) {
	t.Helper()
	ok := b.AppendWith(func(dst []byte) []byte {
		enc, err := wire.AppendFrame(dst, f)
		if err != nil {
			t.Fatalf("append frame: %v", err)
		}
		return enc
	})
	if !ok {
		t.Fatal("batch full")
	}
}

// appendSuper packs frames into the batch's next slot as one GRO
// super-datagram: frames encoded back-to-back (they must be equal size),
// the declared stride recorded on the slot. stride 0 declares the real
// frame size; trunc cuts that many bytes off the tail, mimicking a
// short final segment.
func appendSuper(t testing.TB, b *packetio.Batch, stride, trunc int, frames ...*wire.Frame) {
	t.Helper()
	ok := b.AppendSegments(func(dst []byte) ([]byte, int) {
		frameLen := 0
		for _, f := range frames {
			before := len(dst)
			enc, err := wire.AppendFrame(dst, f)
			if err != nil {
				t.Fatalf("append frame: %v", err)
			}
			if frameLen == 0 {
				frameLen = len(enc) - before
			} else if len(enc)-before != frameLen {
				t.Fatalf("unequal frame sizes in one super: %d then %d", frameLen, len(enc)-before)
			}
			dst = enc
		}
		if trunc > 0 {
			dst = dst[:len(dst)-trunc]
		}
		if stride == 0 {
			stride = frameLen
		}
		return dst, stride
	})
	if !ok {
		t.Fatal("AppendSegments failed")
	}
}

// waitIssued spins until the combiners have minted want values.
func waitIssued(t testing.TB, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Issued() < want {
		if time.Now().After(deadline) {
			t.Fatalf("issued %d, want %d", s.Issued(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUDPRejectReasons pins the per-reason accounting the old packetLoop
// lacked: every rejected datagram lands in udpRejected under its reason
// label (the bad-wire case used to bump only badWire and vanish from the
// UDP stats), and replay drops leave a black-box anomaly.
func TestUDPRejectReasons(t *testing.T) {
	st := NewStats(0)
	fr := flightrec.New(256)
	s := newIngestServer(t, 4, Options{Stats: st, Flight: fr})
	pi := s.NewPacketIngest()
	b := packetio.NewBatch(16)

	// bad_frame: garbage prefix, and a valid-prefix frame with a corrupt body.
	b.Append([]byte("not a frame at all"))
	good, _ := wire.EncodeFrame(&wire.Frame{Type: wire.TInc, ID: 1, Wire: 0})
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xff // breaks the CRC, survives the prefix check
	b.Append(corrupt)
	// bad_mode: a LIN increment and a non-increment request.
	appendFrame(t, b, &wire.Frame{Type: wire.TInc, ID: 2, Wire: 0, Mode: wire.ModeLIN})
	appendFrame(t, b, &wire.Frame{Type: wire.THello, ID: 3})
	// bad_wire: outside the width-4 topology.
	appendFrame(t, b, &wire.Frame{Type: wire.TInc, ID: 4, Wire: 99})
	// Admitted, then replayed: same id twice in one batch.
	appendFrame(t, b, &wire.Frame{Type: wire.TInc, ID: 5, Wire: 1})
	appendFrame(t, b, &wire.Frame{Type: wire.TInc, ID: 5, Wire: 1})
	pi.IngestBatch(b)

	waitIssued(t, s, 1)
	snap := st.Snapshot()
	want := map[string]uint64{"bad_frame": 2, "bad_mode": 2, "bad_wire": 1, "replay": 1}
	for reason, n := range want {
		if snap.UDPRejects[reason] != n {
			t.Errorf("UDPRejects[%q] = %d, want %d (full map %v)", reason, snap.UDPRejects[reason], n, snap.UDPRejects)
		}
	}
	if snap.UDPRejected != 6 {
		t.Errorf("UDPRejected = %d, want 6", snap.UDPRejected)
	}
	if snap.BadWire != 1 {
		t.Errorf("BadWire = %d, want 1 (bad_wire must keep feeding the shared counter)", snap.BadWire)
	}
	if snap.UDPDatagrams != 1 {
		t.Errorf("UDPDatagrams = %d, want 1", snap.UDPDatagrams)
	}
	counts, _ := fr.Anomalies()
	if counts["udp_replay"] != 1 {
		t.Errorf("udp_replay anomalies = %d, want 1 (%v)", counts["udp_replay"], counts)
	}
}

// TestUDPReplayProperty is the end-to-end burn-not-mint drill: a seeded
// stream of increments is duplicated and reordered at the datagram layer,
// and however the duplicates land, the counter mints exactly one value
// per unique id — retransmits burn nothing and mint nothing.
func TestUDPReplayProperty(t *testing.T) {
	const (
		unique = 3000
		seed   = 42
	)
	st := NewStats(0)
	s := newIngestServer(t, 4, Options{Stats: st, Mailbox: 1 << 16})
	pi := s.NewPacketIngest()

	// Build the faulty stream: every id once, ~30% of ids a second time,
	// then shuffle with bounded displacement so most duplicates stay
	// inside the replay window (the unbounded-window case is the DST
	// harness's job; here the window covers the whole stream).
	rng := rand.New(rand.NewSource(seed))
	ids := make([]uint64, 0, unique*2)
	dups := 0
	for i := 0; i < unique; i++ {
		ids = append(ids, uint64(i))
		if rng.Intn(10) < 3 {
			ids = append(ids, uint64(i))
			dups++
		}
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	b := packetio.NewBatch(packetio.MaxBatch)
	for off := 0; off < len(ids); {
		b.Reset()
		for off < len(ids) && b.Len() < b.Cap() {
			id := ids[off]
			appendFrame(t, b, &wire.Frame{Type: wire.TInc, ID: id, Wire: int64(id % 4)})
			off++
		}
		pi.IngestBatch(b)
		// Pace against the mailbox so nothing is shed: the property under
		// test is dedup, not load-shedding (which has its own counter).
		waitIssued(t, s, int64(st.Snapshot().UDPDatagrams))
	}
	waitIssued(t, s, unique)

	snap := st.Snapshot()
	if got := s.Issued(); got != unique {
		t.Fatalf("issued %d values for %d unique ids (dups minted or values lost)", got, unique)
	}
	if snap.UDPDatagrams != unique {
		t.Fatalf("accepted %d datagrams, want %d", snap.UDPDatagrams, unique)
	}
	if snap.UDPRejects["replay"] != uint64(dups) {
		t.Fatalf("replay rejects = %d, want %d", snap.UDPRejects["replay"], dups)
	}
	if snap.UDPDropped != 0 {
		t.Fatalf("udpDropped = %d, want 0 (test paces below the mailbox)", snap.UDPDropped)
	}
}

// TestUDPWindowOverflowBurnsNotMints: a duplicate arriving after the
// window has forgotten the original is admitted — and that is still safe:
// the value it mints was never delivered to anyone (UDP has no response
// path), so no two observers ever see the same value. What the server
// must guarantee is only that it never answers two TCP requests with one
// value; a late UDP replay just burns an extra counter position.
func TestUDPWindowOverflowBurnsNotMints(t *testing.T) {
	st := NewStats(0)
	s := newIngestServer(t, 4, Options{Stats: st, UDPWindow: 8})
	pi := s.NewPacketIngest()
	b := packetio.NewBatch(packetio.MaxBatch)

	appendFrame(t, b, &wire.Frame{Type: wire.TInc, ID: 1, Wire: 0})
	for i := uint64(100); i < 110; i++ { // flush id 1 out of the 8-deep window
		appendFrame(t, b, &wire.Frame{Type: wire.TInc, ID: i, Wire: 0})
	}
	appendFrame(t, b, &wire.Frame{Type: wire.TInc, ID: 1, Wire: 0}) // late replay
	pi.IngestBatch(b)

	waitIssued(t, s, 12)
	if got := st.Snapshot().UDPDatagrams; got != 12 {
		t.Fatalf("accepted %d datagrams, want 12 (late replay admitted by design)", got)
	}
	if s.Issued() != 12 {
		t.Fatalf("issued %d, want 12", s.Issued())
	}
}

// TestUDPBatchAggregation: one ingest pass folds a batch's increments
// into one mailbox post per wire, while the per-datagram stats semantics
// survive the aggregation.
func TestUDPBatchAggregation(t *testing.T) {
	st := NewStats(0)
	s := newIngestServer(t, 4, Options{Stats: st})
	pi := s.NewPacketIngest()
	b := packetio.NewBatch(packetio.MaxBatch)

	const onWire0, onWire1 = 10, 5
	for i := 0; i < onWire0; i++ {
		appendFrame(t, b, &wire.Frame{Type: wire.TInc, ID: uint64(i), Wire: 0})
	}
	for i := 0; i < onWire1; i++ {
		appendFrame(t, b, &wire.Frame{Type: wire.TIncBatch, ID: uint64(100 + i), Wire: 1, K: 2})
	}
	pi.IngestBatch(b)

	const values = onWire0 + 2*onWire1
	waitIssued(t, s, values)
	snap := st.Snapshot()
	if snap.SweepReqs > 2 {
		t.Errorf("combiners saw %d posts for %d datagrams, want ≤2 (one per wire)", snap.SweepReqs, onWire0+onWire1)
	}
	if snap.SCOps != onWire0+onWire1 {
		t.Errorf("scOps = %d, want %d (per-datagram accounting)", snap.SCOps, onWire0+onWire1)
	}
	if snap.LatencySC.Count != onWire0+onWire1 {
		t.Errorf("SC latency count = %d, want %d", snap.LatencySC.Count, onWire0+onWire1)
	}
	if got := st.Snapshot().UDPBatchSizes; len(got) == 0 {
		t.Error("batch-size histogram empty after an ingest pass")
	}
}

// TestUDPSegmentedIngest: a GRO super-datagram's segments each run the
// full admission chain and aggregate per wire exactly like loose
// datagrams, while the segments-per-datagram histogram separates the
// coalesced slot from the plain one.
func TestUDPSegmentedIngest(t *testing.T) {
	st := NewStats(0)
	s := newIngestServer(t, 4, Options{Stats: st})
	pi := s.NewPacketIngest()
	b := packetio.NewBatchSized(4, packetio.GROSlotSize)

	frames := make([]*wire.Frame, 16)
	for i := range frames {
		frames[i] = &wire.Frame{Type: wire.TInc, ID: uint64(0x100 + i), Wire: int64(i % 4)}
	}
	appendSuper(t, b, 0, 0, frames...)
	appendFrame(t, b, &wire.Frame{Type: wire.TInc, ID: 1, Wire: 0})
	pi.IngestBatch(b)

	waitIssued(t, s, 17)
	snap := st.Snapshot()
	if snap.UDPDatagrams != 17 {
		t.Errorf("UDPDatagrams = %d, want 17 (every segment is one datagram)", snap.UDPDatagrams)
	}
	if snap.UDPRejected != 0 {
		t.Errorf("UDPRejected = %d on a clean super (%v)", snap.UDPRejected, snap.UDPRejects)
	}
	if snap.UDPSegmentsSum != 17 {
		t.Errorf("UDPSegmentsSum = %d, want 17", snap.UDPSegmentsSum)
	}
	// 16 segments land in the (8,16] bucket, the plain datagram in bucket 0.
	if len(snap.UDPSegments) == 0 || snap.UDPSegments[4] != 1 || snap.UDPSegments[0] != 1 {
		t.Errorf("UDPSegments = %v, want one slot in bucket 4 and one in bucket 0", snap.UDPSegments)
	}
	if snap.SweepReqs > 4 {
		t.Errorf("combiners saw %d posts for 17 datagrams, want ≤4 (one per wire)", snap.SweepReqs)
	}
}

// TestUDPSegmentRejectReasons drills the segmented framing failures the
// DST udp flavor also plans: a truncated tail segment and a mis-declared
// stride reject as bad_segment (never minting), a replayed id inside an
// otherwise-fresh super rejects as replay, and a mode violation inside a
// segment keeps its own reason — each damaged segment burns only itself.
func TestUDPSegmentRejectReasons(t *testing.T) {
	st := NewStats(0)
	s := newIngestServer(t, 4, Options{Stats: st})
	pi := s.NewPacketIngest()
	b := packetio.NewBatchSized(8, packetio.GROSlotSize)

	fr := func(id int) *wire.Frame {
		return &wire.Frame{Type: wire.TInc, ID: uint64(0x200 + id), Wire: 0}
	}
	enc, err := wire.EncodeFrame(fr(0))
	if err != nil {
		t.Fatal(err)
	}
	frameLen := len(enc)

	// Truncated tail: 4 frames, last loses 2 bytes → 3 mint, 1 bad_segment.
	appendSuper(t, b, 0, 2, fr(0), fr(1), fr(2), fr(3))
	// Mis-declared stride (+1): every segment is cut mid-frame → 4 bad_segment.
	appendSuper(t, b, frameLen+1, 0, fr(10), fr(11), fr(12), fr(13))
	// Replay inside an otherwise-fresh super: 3 mint, 1 replay.
	appendSuper(t, b, 0, 0, fr(20), fr(21), fr(20), fr(22))
	// A LIN frame smuggled into a segment: 1 mint, 1 bad_mode.
	appendSuper(t, b, 0, 0, fr(30), &wire.Frame{Type: wire.TInc, ID: 0x300, Wire: 0, Mode: wire.ModeLIN})
	pi.IngestBatch(b)

	const minted = 3 + 0 + 3 + 1
	waitIssued(t, s, minted)
	snap := st.Snapshot()
	want := map[string]uint64{"bad_segment": 5, "replay": 1, "bad_mode": 1}
	for reason, n := range want {
		if snap.UDPRejects[reason] != n {
			t.Errorf("UDPRejects[%q] = %d, want %d (full map %v)", reason, snap.UDPRejects[reason], n, snap.UDPRejects)
		}
	}
	if snap.UDPDatagrams != minted {
		t.Errorf("UDPDatagrams = %d, want %d", snap.UDPDatagrams, minted)
	}
	if s.Issued() != minted {
		t.Errorf("issued %d, want %d (damaged segments must burn, not mint)", s.Issued(), minted)
	}
}

// TestUDPGSOFallbackSemantics is the capability-probe drill at the server
// seam: with segmentation force-disabled, a UDPGSO server must come up on
// the plain batched path — gso_active 0 — and serve plain datagrams with
// semantics identical to the pre-GSO build.
func TestUDPGSOFallbackSemantics(t *testing.T) {
	restore := packetio.DisableSegmentation()
	defer restore()
	st := NewStats(0)
	s, _, _ := startServer(t, 4, Options{Stats: st, UDPGSO: true})
	ua, err := s.ListenPacket("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot().GSOActive != 0 {
		t.Fatal("gso_active = 1 with segmentation force-disabled")
	}
	pc, err := net.Dial("udp", ua.String())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	const n = 50
	for i := 1; i <= n; i++ {
		f := wire.Frame{Type: wire.TInc, ID: uint64(i), Wire: int64(i % 4)}
		enc, _ := wire.EncodeFrame(&f)
		if _, err := pc.Write(enc); err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Issued() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	snap := st.Snapshot()
	if got := s.Issued(); got == 0 || got > n {
		t.Fatalf("issued %d after %d plain datagrams", got, n)
	}
	if snap.UDPRejected != 0 {
		t.Fatalf("udpRejected = %d on the fallback path (%v)", snap.UDPRejected, snap.UDPRejects)
	}
	// Every observation must be a plain one-segment datagram.
	if snap.UDPSegmentsSum != snap.UDPDatagrams {
		t.Fatalf("segments sum %d != datagrams %d on the fallback path", snap.UDPSegmentsSum, snap.UDPDatagrams)
	}
}

// TestUDPGSOEndpoint runs the offload end to end through real sockets: a
// GSO sender packs one super-datagram, the GRO endpoint mints every
// frame exactly once and flips gso_active.
func TestUDPGSOEndpoint(t *testing.T) {
	if !packetio.Segmentation() {
		t.Skip("kernel lacks UDP_SEGMENT/UDP_GRO")
	}
	st := NewStats(0)
	s, _, _ := startServer(t, 4, Options{Stats: st, UDPGSO: true})
	ua, err := s.ListenPacket("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot().GSOActive != 1 {
		t.Fatal("gso_active = 0 despite a passing probe")
	}
	tx, err := packetio.Dial(ua.String(), packetio.Options{GSO: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	const n = 32
	b := packetio.NewBatch(1)
	frames := make([]*wire.Frame, n)
	for i := range frames {
		frames[i] = &wire.Frame{Type: wire.TInc, ID: uint64(0x400 + i), Wire: int64(i % 4)}
	}
	appendSuper(t, b, 0, 0, frames...)
	if _, err := tx.WriteBatch(b); err != nil {
		t.Fatal(err)
	}

	waitIssued(t, s, n)
	snap := st.Snapshot()
	if snap.UDPRejected != 0 {
		t.Fatalf("udpRejected = %d on a clean GSO send (%v)", snap.UDPRejected, snap.UDPRejects)
	}
	// Whether or not loopback GRO coalesced, every frame is one segment.
	if snap.UDPSegmentsSum != n {
		t.Fatalf("segments sum %d, want %d", snap.UDPSegmentsSum, n)
	}
}

// TestUDPEndpointMultiSocket: the real socket path end to end with every
// fast-path feature on — multiple REUSEPORT sockets, batched reads — and
// datagrams from many senders all land. (On portable builds this runs the
// single-socket fallback; the assertions hold either way.)
func TestUDPEndpointMultiSocket(t *testing.T) {
	st := NewStats(0)
	s, _, _ := startServer(t, 4, Options{Stats: st, UDPSockets: 2})
	ua, err := s.ListenPacket("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const senders, per = 4, 100
	for g := 0; g < senders; g++ {
		go func(g int) {
			pc, err := net.Dial("udp", ua.String())
			if err != nil {
				return
			}
			defer pc.Close()
			for i := 0; i < per; i++ {
				id := uint64(g)<<32 | uint64(i)
				f := wire.Frame{Type: wire.TInc, ID: id, Wire: int64(id % 4)}
				enc, _ := wire.EncodeFrame(&f)
				_, _ = pc.Write(enc)
				if i%32 == 31 {
					time.Sleep(time.Millisecond) // stay under the socket buffer
				}
			}
		}(g)
	}

	const n = senders * per
	deadline := time.Now().Add(5 * time.Second)
	for s.Issued() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Loopback should not drop at this rate, but UDP's contract is
	// at-most-once: progress, never over-mint.
	got := s.Issued()
	if got == 0 || got > n {
		t.Fatalf("issued %d after %d datagrams", got, n)
	}
	if rej := st.Snapshot().UDPRejected; rej != 0 {
		t.Fatalf("udpRejected = %d on a clean stream (%v)", rej, st.Snapshot().UDPRejects)
	}
}

// BenchmarkPacketIngest measures the per-datagram cost of the steady-state
// admission path — prefix filter, CRC decode, replay window, per-wire
// aggregation, mailbox post — and pins it at 0 allocs/op (CI gates on
// this the way it gates the codec). Ids cycle through a space much larger
// than the replay window so every datagram takes the accept path.
func BenchmarkPacketIngest(b *testing.B) {
	s := newIngestServer(b, 4, Options{Mailbox: 1 << 16})
	pi := s.NewPacketIngest()

	// Pre-encode one frame per id in a cycle of 1<<16 (≫ the 4096 window).
	const idSpace = 1 << 16
	encoded := make([][]byte, idSpace)
	for i := range encoded {
		f := wire.Frame{Type: wire.TInc, ID: uint64(i), Wire: int64(i % 4)}
		enc, err := wire.EncodeFrame(&f)
		if err != nil {
			b.Fatal(err)
		}
		encoded[i] = enc
	}

	batch := packetio.NewBatch(packetio.MaxBatch)
	b.ReportAllocs()
	b.ResetTimer()
	id := 0
	for i := 0; i < b.N; i += batch.Cap() {
		batch.Reset()
		for batch.Len() < batch.Cap() {
			batch.Append(encoded[id&(idSpace-1)])
			id++
		}
		pi.IngestBatch(batch)
	}
	b.StopTimer()
	ops := float64(time.Second) / float64(b.Elapsed().Nanoseconds()) * float64(b.N)
	b.ReportMetric(ops, "datagrams/s")
}

// BenchmarkPacketIngestGSO is BenchmarkPacketIngest over GRO-coalesced
// slots: every ring slot carries a stride of segs equal-size frames, so
// one slot admission covers segs datagrams — the admission-side half of
// the GSO win, isolated from the kernel. One op is one datagram
// (segment); the 0-allocs gate covers this next to the plain ingest.
func BenchmarkPacketIngestGSO(b *testing.B) {
	for _, segs := range []int{16, 64} {
		b.Run(fmt.Sprintf("segs=%d", segs), func(b *testing.B) {
			s := newIngestServer(b, 4, Options{Mailbox: 1 << 16})
			pi := s.NewPacketIngest()

			// Pre-pack super payloads over an id cycle of 1<<16 (≫ the 4096
			// window). Ids offset by 1<<20 so every uvarint is 3 bytes and
			// the frames in one super share a stride.
			const idSpace = 1 << 16
			stride := 0
			nsupers := idSpace / segs
			supers := make([][]byte, nsupers)
			for si := range supers {
				var p []byte
				for j := 0; j < segs; j++ {
					id := uint64(1<<20 | (si*segs + j))
					f := wire.Frame{Type: wire.TInc, ID: id, Wire: int64(id % 4)}
					before := len(p)
					enc, err := wire.AppendFrame(p, &f)
					if err != nil {
						b.Fatal(err)
					}
					if stride == 0 {
						stride = len(enc) - before
					} else if len(enc)-before != stride {
						b.Fatalf("unequal frame size: %d then %d", stride, len(enc)-before)
					}
					p = enc
				}
				supers[si] = p
			}

			batch := packetio.NewBatchSized(packetio.MaxBatch, packetio.GROSlotSize)
			// One closure reused across the run: a per-append closure would
			// allocate and break the 0-allocs gate.
			var cur []byte
			pack := func(dst []byte) ([]byte, int) { return append(dst, cur...), stride }
			b.ReportAllocs()
			b.ResetTimer()
			si := 0
			for i := 0; i < b.N; i += batch.Cap() * segs {
				batch.Reset()
				for batch.Len() < batch.Cap() {
					cur = supers[si&(nsupers-1)]
					si++
					if !batch.AppendSegments(pack) {
						b.Fatal("AppendSegments failed")
					}
				}
				pi.IngestBatch(batch)
			}
			b.StopTimer()
			ops := float64(time.Second) / float64(b.Elapsed().Nanoseconds()) * float64(b.N)
			b.ReportMetric(ops, "datagrams/s")
		})
	}
}

// TestIngestBatchDuringClose: a PacketIngest driven from outside the
// server (the simulation harness, the benchmark) may still be posting
// while Close closes the mailboxes, and after. Neither may panic with
// "send on closed channel"; what Close refused is counted as dropped, so
// admitted == minted + dropped.
func TestIngestBatchDuringClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		st := NewStats(0)
		s := newIngestServer(t, 4, Options{Stats: st})
		pi := s.NewPacketIngest()
		b := packetio.NewBatch(packetio.MaxBatch)
		var id uint64
		ingest := func(frames int) {
			b.Reset()
			for i := 0; i < frames; i++ {
				f := wire.Frame{Type: wire.TInc, ID: id, Wire: int64(id % 4)}
				b.AppendWith(func(dst []byte) []byte {
					dst, _ = wire.AppendFrame(dst, &f) // a TInc always encodes
					return dst
				})
				id++
			}
			pi.IngestBatch(b)
		}

		ingest(packetio.MaxBatch)
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					ingest(packetio.MaxBatch)
				}
			}
		}()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		<-done
		ingest(1) // Close has fully returned: refused, not a panic

		snap := st.Snapshot()
		if snap.UDPDropped == 0 {
			t.Fatalf("round %d: ingest after Close dropped nothing", round)
		}
		if got := uint64(s.Issued()) + snap.UDPDropped; got != snap.UDPDatagrams {
			t.Fatalf("round %d: minted %d + dropped %d != admitted %d", round, s.Issued(), snap.UDPDropped, snap.UDPDatagrams)
		}
	}
}
