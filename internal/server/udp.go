package server

import (
	"net"

	"repro/internal/packetio"
	"repro/internal/wire"
)

// The UDP endpoint is the serving layer's fastest door: fire-and-forget
// SC increments with no response path, so the entire per-datagram cost is
// ingest. This file owns that path — batched socket reads (packetio),
// a prefix admission filter that rejects garbage before the CRC decode
// (wire.PeekHeader), a bounded replay window so retransmitted datagrams
// burn values but never mint duplicates, and per-batch aggregation that
// folds a whole syscall's worth of increments into one mailbox post per
// wire.

// ListenPacket starts the optional UDP endpoint on addr: datagrams
// carrying SC TInc/TIncBatch frames are folded into the combining loop
// fire-and-forget — no response, at-most-once (a datagram that misses the
// mailbox is dropped and counted; a replayed dedup id is rejected).
// On Linux this opens Options.UDPSockets kernel-sharded sockets, each
// with its own batched read loop; elsewhere a single classic ReadFrom
// loop serves the same protocol.
func (s *Server) ListenPacket(addr string) (net.Addr, error) {
	conns, err := packetio.Listen(addr, packetio.Options{
		Sockets:  s.opt.UDPSockets,
		Portable: s.opt.UDPPortable,
		GSO:      s.opt.UDPGSO,
	})
	if err != nil {
		return nil, err
	}
	if st := s.opt.Stats; st != nil {
		// Segmented() is all-or-nothing across one listen group, so the
		// first socket speaks for the endpoint.
		st.setGSOActive(conns[0].Segmented())
	}
	s.mu.Lock()
	s.udps = append(s.udps, conns...)
	s.readerWg.Add(len(conns))
	s.mu.Unlock()
	for _, c := range conns {
		go s.ingestLoop(c)
	}
	return conns[0].LocalAddr(), nil
}

// ingestLoop serves one UDP socket: one ReadBatch syscall fills the
// ring, one IngestBatch pass admits and posts it. The ring's slots are
// reused for every batch; that reuse is safe because wire.DecodeInto
// guarantees the decoded frame never aliases its input (see the wire
// package's aliasing contract, pinned by TestDecodeDoesNotAliasInput and
// exercised end-to-end by TestUDPBufferReuse). A GRO socket gets 64 KiB
// slots so a fully coalesced super-datagram is never truncated.
func (s *Server) ingestLoop(c packetio.Conn) {
	defer s.readerWg.Done()
	pi := s.NewPacketIngest()
	slot := packetio.SlotSize
	if c.Segmented() {
		slot = packetio.GROSlotSize
	}
	b := packetio.NewBatchSized(s.opt.UDPBatch, slot)
	for {
		if _, err := c.ReadBatch(b); err != nil {
			return // socket closed
		}
		pi.IngestBatch(b)
	}
}

// udpAgg accumulates one wire's increments across a batch: k values to
// mint, how many datagrams contributed (drop accounting stays in
// datagrams), and the first trace id seen (one trace rides an aggregated
// post).
type udpAgg struct {
	wire      int
	k         int64
	datagrams uint64
	trace     uint64
}

// PacketIngest is one ingest loop's per-batch admission state: a reusable
// decode frame, the loop's replay window, and the per-wire aggregation
// scratch. One PacketIngest serves one goroutine — under SO_REUSEPORT the
// kernel hashes a flow to a stable socket, so a client's retransmit meets
// the same replay window that saw the original. The deterministic
// simulation harness drives this type directly (no kernel sockets) to
// replay seeded duplicate/reorder scenarios through the real admission
// path.
type PacketIngest struct {
	s   *Server
	win *packetio.Window
	f   wire.Frame
	agg []udpAgg
}

// NewPacketIngest builds the admission state for one ingest loop.
func (s *Server) NewPacketIngest() *PacketIngest {
	return &PacketIngest{s: s, win: packetio.NewWindow(s.opt.UDPWindow)}
}

// IngestBatch admits every packet currently in b and posts the survivors
// to the combining shards, aggregated per wire — one mailbox post covers
// a whole batch's increments on that wire, so at batch 64 the combiners
// see 1/64th the channel traffic. Steady state it allocates nothing.
// Safe to call during and after Server.Close: what can no longer be
// posted is counted as udp_dropped.
//
// A slot whose SegSize is set is a GRO super-datagram: a stride of
// equal-size wire datagrams coalesced by the kernel (the last possibly
// shorter). Each stride runs the full admission chain independently — a
// damaged segment burns only itself, never its neighbours. Everything
// else (SegSize 0) takes the exact pre-GSO path, trailing-byte tolerance
// included, so the fallback is byte-identical to the unsegmented build.
func (pi *PacketIngest) IngestBatch(b *packetio.Batch) {
	s := pi.s
	st := s.opt.Stats
	n := b.Len()
	if st != nil {
		st.observeUDPBatch(n)
	}
	pi.agg = pi.agg[:0]
	for i := 0; i < n; i++ {
		p := b.Packet(i)
		seg := b.SegSize(i)
		if seg <= 0 || seg >= len(p) {
			if st != nil {
				st.observeUDPSegs(1)
			}
			pi.admit(p, false)
			continue
		}
		if st != nil {
			st.observeUDPSegs((len(p) + seg - 1) / seg)
		}
		for off := 0; off < len(p); off += seg {
			end := off + seg
			if end > len(p) {
				end = len(p)
			}
			pi.admit(p[off:end], true)
		}
	}
	if len(pi.agg) == 0 {
		return
	}
	now := s.clk.Now()
	// One fence per batch, not per frame: Close cannot close the mailboxes
	// under these posts, and a batch that arrives after it has is refused
	// whole and counted as dropped.
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	for j := range pi.agg {
		a := &pi.agg[j]
		if s.mailShut || !s.post(req{c: nil, wire: a.wire, k: a.k, folds: uint32(a.datagrams), enq: now, trace: a.trace}) {
			if st != nil {
				st.udpDropped.Add(a.datagrams)
			}
			s.anomaly("udp_drop", a.trace)
		}
	}
}

// admit runs one wire datagram — a plain packet or one segment of a GRO
// super-datagram — through the admission chain and folds survivors into
// the per-wire aggregation scratch.
//
// Admission order: prefix filter (magic/version/known request opcode —
// rejects garbage after five bytes), mode gate (UDP serves only SC
// increments), full CRC decode, topology check, replay window. Every
// rejection is counted under its reason; replays additionally note a
// black-box anomaly, because a replayed id means a client retransmitted
// into the dedup window — expected under loss, but worth a flight-record
// breadcrumb when it clusters.
//
// segmented tightens the framing contract: a kernel-carved segment must
// be exactly one valid frame, so prefix/CRC damage, a short truncated
// tail, or bytes left over after the decode all reject as bad_segment —
// the mis-strided-super signature. Plain datagrams keep the pre-GSO
// leniency (trailing bytes ignored) and reject framing damage as
// bad_frame.
func (pi *PacketIngest) admit(p []byte, segmented bool) {
	s := pi.s
	st := s.opt.Stats
	badFraming := udpRejectBadFrame
	if segmented {
		badFraming = udpRejectBadSegment
	}
	typ, mode, perr := wire.PeekHeader(p)
	if perr != nil {
		if st != nil {
			st.udpRejectReason(badFraming)
		}
		return
	}
	if mode != wire.ModeSC || (typ != wire.TInc && typ != wire.TIncBatch) {
		if st != nil {
			st.udpRejectReason(udpRejectBadMode)
		}
		return
	}
	consumed, err := wire.DecodeInto(&pi.f, p)
	if err != nil || (segmented && consumed != len(p)) {
		if st != nil {
			st.udpRejectReason(badFraming)
		}
		return
	}
	f := &pi.f
	if !s.shape.Contains(f.Wire) {
		if st != nil {
			st.udpRejectReason(udpRejectBadWire)
			st.badWire.Add(1)
		}
		return
	}
	k := int64(1)
	if f.Type == wire.TIncBatch {
		k = f.K
	}
	if k <= 0 {
		if st != nil {
			st.udpRejectReason(badFraming)
		}
		return
	}
	if !pi.win.Observe(f.ID) {
		if st != nil {
			st.udpRejectReason(udpRejectReplay)
		}
		s.anomaly("udp_replay", f.Trace)
		return
	}
	if st != nil {
		st.udpDatagrams.Add(1)
	}
	trace := f.Trace
	if trace == 0 {
		trace = s.sampler.Sample()
	}
	w := int(f.Wire)
	for j := range pi.agg {
		if pi.agg[j].wire == w {
			pi.agg[j].k += k
			pi.agg[j].datagrams++
			if pi.agg[j].trace == 0 {
				pi.agg[j].trace = trace
			}
			return
		}
	}
	pi.agg = append(pi.agg, udpAgg{wire: w, k: k, datagrams: 1, trace: trace})
}
