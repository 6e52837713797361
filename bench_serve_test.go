package countingnet

// Serving-path benchmarks: the wire codec in isolation and the full
// loopback serving stack (server + client library) under SC and LIN at
// increasing pipelining. BenchmarkWireEncode, BenchmarkWireEncodeShed
// and BenchmarkWireDecode must report 0 allocs/op — CI's serve-smoke job
// asserts it — because the codec's allocation-freedom is what the rest of
// the serving hot path is built on. BenchmarkServerLoopback is the socket-level half of the
// paper's SC-vs-LIN story on one node: both modes combine across callers
// and ride the same sweeps, and a single sweeper's one-at-a-time
// traversals are the waiting LIN needs, so the two curves should sit
// close together. BenchmarkPipelinedIncBatch is the uncombined side:
// many requests in flight on one connection, sharing write syscalls.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/construct"
	"repro/internal/packetio"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/wire"
)

// serveBenchFrames is the frame mix the loopback path actually carries:
// the SC request/response pair plus the batched forms the client-side
// combiner emits.
func serveBenchFrames() []wire.Frame {
	return []wire.Frame{
		{Type: wire.TInc, ID: 42, Wire: 3},
		{Type: wire.TValue, ID: 42, Value: 123456789},
		{Type: wire.TIncBatch, ID: 43, Wire: 5, K: 512},
		{Type: wire.TRanges, ID: 43, Rs: []wire.Range{
			{First: 1000, Stride: 8, Count: 256},
			{First: 1004, Stride: 8, Count: 256},
		}},
	}
}

// BenchmarkWireEncode — steady-state frame encoding into a reused buffer;
// must run at 0 allocs/op.
func BenchmarkWireEncode(b *testing.B) {
	frames := serveBenchFrames()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &frames[i%len(frames)]
		var err error
		if buf, err = wire.AppendFrame(buf[:0], f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodeShed — the traced backpressure reply the server
// sheds a full mailbox with, encoded into a reused buffer; must run at 0
// allocs/op. Encode only: decoding a TError allocates its Msg.
func BenchmarkWireEncodeShed(b *testing.B) {
	f := wire.Frame{Type: wire.TError, ID: 42, Trace: 0xfeedface,
		Code: wire.CodeOf(wire.ErrBackpressure), Msg: wire.ErrBackpressure.Error()}
	buf, err := wire.AppendFrame(nil, &f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = wire.AppendFrame(buf[:0], &f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode — steady-state frame decoding into a reused frame;
// must run at 0 allocs/op.
func BenchmarkWireDecode(b *testing.B) {
	frames := serveBenchFrames()
	encoded := make([][]byte, len(frames))
	for i := range frames {
		var err error
		if encoded[i], err = wire.EncodeFrame(&frames[i]); err != nil {
			b.Fatal(err)
		}
	}
	var f wire.Frame
	// Warm the frame's slice capacity so the measurement is steady state.
	for i := range encoded {
		if _, err := wire.DecodeInto(&f, encoded[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeInto(&f, encoded[i%len(encoded)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerLoopback — the full serving stack on loopback: a width-8
// bitonic network served over TCP, g goroutines sharing one client,
// reporting closed-loop ops/s. CI asserts both modes stay at 0 allocs/op
// at g=16 and g=64; the numbers compared across commits are the paced
// tcp_sc_paced / tcp_lin_paced workloads in bench/.
func BenchmarkServerLoopback(b *testing.B) {
	for _, mode := range []wire.Mode{wire.ModeSC, wire.ModeLIN} {
		for _, g := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("mode=%s/g=%d", mode, g), func(b *testing.B) {
				rt := runtime.MustCompile(construct.MustBitonic(8))
				srv := server.New(rt, server.Options{})
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				c, err := client.Dial(addr.String(), client.Options{Mode: mode, Window: 64})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()

				b.ReportAllocs()
				before := c.Stats().Writes
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / g
				extra := b.N % g
				for w := 0; w < g; w++ {
					n := per
					if w < extra {
						n++
					}
					if n == 0 {
						continue
					}
					wg.Add(1)
					go func(w, n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if _, err := c.IncCtx(context.Background(), w); err != nil {
								b.Error(err)
								return
							}
						}
					}(w, n)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
				// The share of a write syscall each op pays: 1 alone, far
				// less as callers combine into frames and frames share writes.
				b.ReportMetric(float64(c.Stats().Writes-before)/float64(b.N), "writes/op")
			})
		}
	}
}

// BenchmarkPipelinedIncBatch — the traffic the client's group commit
// serves: 64 goroutines sharing one connection, each calling
// IncBatchCtx with k=1, which never combines, so up to Window requests
// are in flight on the connection at once. frames/write is the
// group-commit factor: the frames each write syscall carried.
func BenchmarkPipelinedIncBatch(b *testing.B) {
	const g = 64
	for _, mode := range []wire.Mode{wire.ModeSC, wire.ModeLIN} {
		b.Run(fmt.Sprintf("mode=%s", mode), func(b *testing.B) {
			rt := runtime.MustCompile(construct.MustBitonic(8))
			srv := server.New(rt, server.Options{})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c, err := client.Dial(addr.String(), client.Options{Mode: mode, Conns: 1, Window: 64})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()

			before := c.Stats()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				n := b.N / g
				if w < b.N%g {
					n++
				}
				wg.Add(1)
				go func(w, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := c.IncBatchCtx(context.Background(), w%8, 1, mode); err != nil {
							b.Error(err)
							return
						}
					}
				}(w, n)
			}
			wg.Wait()
			b.StopTimer()
			after := c.Stats()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			if writes := after.Writes - before.Writes; writes > 0 {
				b.ReportMetric(float64(after.Frames-before.Frames)/float64(writes), "frames/write")
			}
		})
	}
}

// BenchmarkUDPIngest — the UDP ingest side's syscall economics over a
// real loopback socket: datagrams carrying SC increments are burst into
// the receive buffer untimed, then the timed section drains and admits
// them exactly as the server's ingest loop does (socket read, prefix
// filter, CRC decode, replay window, aggregated post). The
// portable/batch=1 row is the classic one-ReadFrom-per-datagram loop —
// the "before" — and the fast rows are the recvmmsg ring at increasing
// batch, where one syscall fills the whole ring. The before/after rows
// are the UDP fast path's headline numbers: datagrams/s is the
// wall-clock gain (bounded below by the kernel's per-message
// udp_recvmsg work, which recvmmsg cannot amortize — expect modest
// ratios on small hosts) and datagrams/syscall is the 64x syscall
// amortization itself, which is what scales with syscall entry cost
// (mitigations, virtualization).
func BenchmarkUDPIngest(b *testing.B) {
	configs := []struct {
		name     string
		portable bool
		batch    int
	}{
		{"path=portable/batch=1", true, 1},
		{"path=fast/batch=1", false, 1},
		{"path=fast/batch=16", false, 16},
		{"path=fast/batch=64", false, 64},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			rt := runtime.MustCompile(construct.MustBitonic(8))
			st := server.NewStats(0)
			srv := server.New(rt, server.Options{Stats: st})
			defer srv.Close()
			o := packetio.Options{Portable: cfg.portable, Sockets: 1}
			conns, err := packetio.Listen("127.0.0.1:0", o)
			if err != nil {
				b.Fatal(err)
			}
			rx := conns[0]
			defer rx.Close()
			tx, err := packetio.Dial(rx.LocalAddr().String(), o)
			if err != nil {
				b.Fatal(err)
			}
			defer tx.Close()

			pi := srv.NewPacketIngest()
			wb := packetio.NewBatch(packetio.MaxBatch)
			rb := packetio.NewBatch(cfg.batch)
			var f wire.Frame
			enc := func(dst []byte) []byte {
				p, err := wire.AppendFrame(dst, &f)
				if err != nil {
					b.Fatal(err)
				}
				return p
			}

			// Burst size is bounded by what the socket's receive buffer
			// reliably holds — a dropped datagram would hang the drain.
			const burst = packetio.MaxBatch
			b.ReportAllocs()
			b.ResetTimer()
			var id uint64
			reads := 0
			for done := 0; done < b.N; {
				k := burst
				if left := b.N - done; left < k {
					k = left
				}
				b.StopTimer()
				wb.Reset()
				for i := 0; i < k; i++ {
					id++
					f = wire.Frame{Type: wire.TInc, ID: id, Wire: int64(id % 8)}
					wb.AppendWith(enc)
				}
				if _, err := tx.WriteBatch(wb); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for got := 0; got < k; {
					n, err := rx.ReadBatch(rb)
					if err != nil {
						b.Fatal(err)
					}
					pi.IngestBatch(rb)
					got += n
					reads++
				}
				done += k
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "datagrams/s")
			b.ReportMetric(float64(b.N)/float64(reads), "datagrams/syscall")
			if snap := st.Snapshot(); snap.UDPDatagrams != uint64(b.N) {
				b.Fatalf("admitted %d datagrams, sent %d", snap.UDPDatagrams, b.N)
			}
		})
	}
}

// BenchmarkUDPIngestGSO — phase 2 of the UDP ingest economics: the same
// drain-and-admit loop as BenchmarkUDPIngest, but the sender packs segs
// equal-stride frames into one UDP_SEGMENT super-datagram and the
// receiver reads GRO-coalesced buffers, so the kernel's per-datagram
// udp_sendmsg/udp_recvmsg work — the floor recvmmsg cannot amortize —
// is paid once per super instead of once per frame. One benchmark op is
// one wire frame, so datagrams/s here divides directly against the
// fast/batch=64 row above: that quotient is the GSO/GRO speedup the
// DESIGN.md fast-path section records. Skips where the kernel lacks
// UDP_SEGMENT/UDP_GRO (the fallback path is the plain bench above).
func BenchmarkUDPIngestGSO(b *testing.B) {
	if !packetio.Segmentation() {
		b.Skip("kernel lacks UDP_SEGMENT/UDP_GRO")
	}
	for _, segs := range []int{16, 64} {
		b.Run(fmt.Sprintf("segs=%d", segs), func(b *testing.B) {
			rt := runtime.MustCompile(construct.MustBitonic(8))
			st := server.NewStats(0)
			srv := server.New(rt, server.Options{Stats: st})
			defer srv.Close()
			o := packetio.Options{Sockets: 1, GSO: true}
			conns, err := packetio.Listen("127.0.0.1:0", o)
			if err != nil {
				b.Fatal(err)
			}
			rx := conns[0]
			defer rx.Close()
			tx, err := packetio.Dial(rx.LocalAddr().String(), o)
			if err != nil {
				b.Fatal(err)
			}
			defer tx.Close()
			if !rx.Segmented() || !tx.Segmented() {
				b.Skip("segmentation probe passed but socket setup fell back")
			}

			pi := srv.NewPacketIngest()
			wb := packetio.NewBatchSized(packetio.MaxBatch, packetio.GROSlotSize)
			rb := packetio.NewBatchSized(packetio.MaxBatch, packetio.GROSlotSize)
			var super []byte
			var stride int
			pack := func(dst []byte) ([]byte, int) { return append(dst, super...), stride }

			// Worst case the kernel delivers every segment uncoalesced, so
			// the in-flight burst must fit the receive buffer at
			// one-skb-per-frame cost: 128 frames stays well inside the
			// 212992-byte default.
			const burstFrames = 128
			b.ReportAllocs()
			b.ResetTimer()
			var seq uint64
			reads := 0
			for done := 0; done < b.N; {
				b.StopTimer()
				wb.Reset()
				sent := 0
				for sent < burstFrames && done+sent < b.N {
					n := segs
					if left := b.N - done - sent; left < n {
						n = left // final short super (n==1 degenerates to a plain datagram)
					}
					super = super[:0]
					for i := 0; i < n; i++ {
						seq++
						// Ids stay in the three-byte uvarint band so every
						// frame encodes to the same stride; the 2^20 cycle is
						// far wider than the replay window.
						f := wire.Frame{Type: wire.TInc, ID: 1<<20 | (seq & 0xFFFFF), Wire: int64(seq % 8)}
						super, err = wire.AppendFrame(super, &f)
						if err != nil {
							b.Fatal(err)
						}
					}
					stride = len(super) / n
					if !wb.AppendSegments(pack) {
						b.Fatal("AppendSegments refused a planned super")
					}
					sent += n
				}
				if _, err := tx.WriteBatch(wb); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for got := 0; got < sent; {
					if _, err := rx.ReadBatch(rb); err != nil {
						b.Fatal(err)
					}
					for i := 0; i < rb.Len(); i++ {
						p := rb.Packet(i)
						if seg := rb.SegSize(i); seg > 0 {
							got += (len(p) + seg - 1) / seg
						} else {
							got++
						}
					}
					pi.IngestBatch(rb)
					reads++
				}
				done += sent
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "datagrams/s")
			b.ReportMetric(float64(b.N)/float64(reads), "datagrams/syscall")
			if snap := st.Snapshot(); snap.UDPDatagrams != uint64(b.N) {
				b.Fatalf("admitted %d frames, sent %d (rejects %v)", snap.UDPDatagrams, b.N, snap.UDPRejects)
			}
		})
	}
}
