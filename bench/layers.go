package main

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/construct"
	"repro/internal/flightrec"
	"repro/internal/packetio"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/wire"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees; every workload reports
// all four from the untraced run, each with the same regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
}

// perLayer is the traced run's report, layer = module name. A metric
// that does not exist on a workload (client.* on inproc_inc, say) reads
// 0 there; bench/README.md says which workload each belongs to.
var perLayer = []metricDef{
	{"construct.build_us", "us", "lower"},
	{"runtime.compile_us", "us", "lower"},
	{"server.listen_us", "us", "lower"},
	{"client.dial_us", "us", "lower"},
	{"server.close_us", "us", "lower"},

	{"runtime.inc_ns", "ns", "lower"},
	{"runtime.depth", "count", "lower"},
	{"runtime.incbatch64_ns_per_id", "ns", "lower"},
	{"runtime.lin_inc_ns", "ns", "lower"},
	{"runtime.inc_contended_ns", "ns", "lower"},

	{"wire.encode_inc_ns", "ns", "lower"},
	{"wire.decode_inc_ns", "ns", "lower"},
	{"wire.encode_ranges_ns", "ns", "lower"},
	{"wire.decode_ranges_ns", "ns", "lower"},
	{"wire.inc_frame_bytes", "bytes", "lower"},
	{"wire.allocs_per_frame", "count", "lower"},

	{"client.frames_per_op", "count", "lower"},
	{"client.combine_p50_us", "us", "lower"},
	{"client.rpc_p50_us", "us", "lower"},
	{"client.retries", "count", "lower"},

	{"server.reqs_per_sweep", "count", "higher"},
	{"server.tokens_per_sweep", "count", "higher"},
	{"server.flushes_per_op", "count", "lower"},
	{"server.bytes_out_per_op", "bytes", "lower"},
	{"server.queue_max", "count", "lower"},
	{"server.mailbox_p50_us", "us", "lower"},
	{"server.sweep_p50_us", "us", "lower"},
	{"server.traverse_p50_us", "us", "lower"},
	{"server.flush_p50_us", "us", "lower"},
	{"server.lin_wait_p50_us", "us", "lower"},
	{"server.backpressure", "count", "lower"},
	{"server.timeouts", "count", "lower"},
	{"server.evictions", "count", "lower"},
	{"server.udp_admit_ns_per_frame", "ns", "lower"},
	{"server.udp_rejected", "count", "lower"},
	{"server.udp_dropped", "count", "lower"},

	{"packetio.window_observe_ns", "ns", "lower"},
	{"packetio.append_ns_per_frame", "ns", "lower"},
	{"packetio.write_us_per_batch", "us", "lower"},
	{"packetio.read_us_per_batch", "us", "lower"},
	{"packetio.dgrams_per_read", "count", "higher"},
	{"packetio.loopback_goodput_frac", "frac", "higher"},
	{"packetio.gso_active", "count", "higher"},

	{"loadgen.late_p50_us", "us", "lower"},
	{"loadgen.due_p50_us", "us", "lower"},
	{"loadgen.backlog_max", "count", "lower"},
	{"loadgen.tail_us", "us", "lower"},
	{"loadgen.tail_pct", "pct", "higher"},
	{"loadgen.samples", "count", "higher"},
	{"loadgen.failed", "count", "lower"},
	{"loadgen.allocs_per_op", "count", "lower"},
	{"loadgen.steal_frac", "frac", "lower"},
	{"loadgen.closed_sc_ops_per_s", "1/s", "higher"},
	{"loadgen.closed_lin_ops_per_s", "1/s", "higher"},
	{"loadgen.trace_overhead_frac", "frac", "lower"},
}

// timeOp returns the median, over reps batches, of the time one call
// in a batch of n took, in ns. A median of short batches steps over the
// steal bursts a single long timing would absorb.
func timeOp(reps, n int, batch func(n int)) float64 {
	v := make([]float64, reps)
	for i := range v {
		t0 := time.Now()
		batch(n)
		v[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(v)
}

// sink keeps the micro legs' results alive so no call is optimised out.
var sink int64

// microLegs times the layers' public functions in isolation, the same
// on every workload: runtime traversal, the wire codec, the packetio
// ring and replay window. scale shortens them for the smoke pass.
func microLegs(out map[string]float64, scale float64) error {
	reps, n := 21, int(20000*scale)+1
	net := net0()
	// First on the fresh network: LinearizableCounter needs a counter
	// that starts at zero.
	lin := runtime.NewLinearizableCounter(net)
	out["runtime.lin_inc_ns"] = timeOp(reps, n, func(n int) {
		for i := 0; i < n; i++ {
			sink += lin.Inc(i & (width - 1))
		}
	})
	out["runtime.depth"] = float64(net.Depth())
	out["runtime.inc_ns"] = timeOp(reps, n, func(n int) {
		for i := 0; i < n; i++ {
			sink += net.Inc(i & (width - 1))
		}
	})
	var rs []runtime.Range
	out["runtime.incbatch64_ns_per_id"] = timeOp(reps, n/16+1, func(n int) {
		for i := 0; i < n; i++ {
			rs = net.IncBatchAppend(rs[:0], i&(width-1), 64)
		}
	}) / 64
	out["runtime.inc_contended_ns"] = contendedInc(net, reps, n)

	inc := wire.Frame{Type: wire.TInc, ID: dedupID(0, 42), Wire: 3}
	ranges := wire.Frame{Type: wire.TRanges, ID: 43, Rs: []wire.Range{
		{First: 1000, Stride: 16, Count: 32}, {First: 1004, Stride: 16, Count: 32},
	}}
	var buf []byte
	var dec wire.Frame
	var codecErr error
	codec := func(f *wire.Frame, encName, decName string) []byte {
		out[encName] = timeOp(reps, n, func(n int) {
			for i := 0; i < n; i++ {
				var err error
				if buf, err = wire.AppendFrame(buf[:0], f); err != nil {
					codecErr = err
				}
			}
		})
		enc := append([]byte(nil), buf...)
		out[decName] = timeOp(reps, n, func(n int) {
			for i := 0; i < n; i++ {
				if _, err := wire.DecodeInto(&dec, enc); err != nil {
					codecErr = err
				}
			}
		})
		return enc
	}
	codec(&ranges, "wire.encode_ranges_ns", "wire.decode_ranges_ns")
	enc := codec(&inc, "wire.encode_inc_ns", "wire.decode_inc_ns")
	out["wire.inc_frame_bytes"] = float64(len(enc))
	var m0, m1 stdruntime.MemStats
	stdruntime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		buf, _ = wire.AppendFrame(buf[:0], &inc) // same frame as above: cannot fail now
		_, _ = wire.DecodeInto(&dec, buf)
	}
	stdruntime.ReadMemStats(&m1)
	out["wire.allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / float64(2*n)
	if codecErr != nil {
		return fmt.Errorf("wire codec micro leg: %w", codecErr)
	}

	win := packetio.NewWindow(4096) // the server's default UDPWindow
	var id uint64
	out["packetio.window_observe_ns"] = timeOp(reps, n, func(n int) {
		for i := 0; i < n; i++ {
			id++
			if !win.Observe(id) {
				sink++
			}
		}
	})
	b := packetio.NewBatch(ingestFrames)
	appendInc := func(dst []byte) []byte {
		p, _ := wire.AppendFrame(dst, &inc) // timed above, cannot fail
		return p
	}
	out["packetio.append_ns_per_frame"] = timeOp(reps, n/ingestFrames+1, func(n int) {
		for i := 0; i < n; i++ {
			b.Reset()
			for j := 0; j < ingestFrames; j++ {
				b.AppendWith(appendInc)
			}
		}
	}) / ingestFrames
	return nil
}

// contendedInc times Inc with one goroutine and one P per vCPU, all on
// one network. Bistable with vCPU placement on a shared 2-vCPU box
// (expect ±30 %), which is why it is a layer metric and the gated
// workload is single-goroutine.
func contendedInc(net *runtime.Network, reps, n int) float64 {
	g := stdruntime.NumCPU()
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(g))
	return timeOp(reps, n, func(n int) {
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var s int64
				for i := 0; i < n; i++ {
					s += net.Inc((w + i) & (width - 1))
				}
				atomic.AddInt64(&sink, s)
			}(w)
		}
		wg.Wait()
	})
}

// net0 compiles a fresh B(16).
func net0() *runtime.Network {
	return runtime.MustCompile(construct.MustBitonic(width))
}

// closedLoop is the classic capacity measurement: 64 callers, each
// issuing its next IncMode when the last returns, for dur, on every
// vCPU — the one place the serving stack runs multi-core. Wall-clock
// throughput of a saturated 2-vCPU guest spreads 45–50 % between runs,
// so this is reported and never gated.
func closedLoop(mode wire.Mode, dur time.Duration) (float64, error) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(stdruntime.NumCPU()))
	srv := server.New(net0(), server.Options{})
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	c, err := client.Dial(addr.String(), client.Options{Conns: clientConns, Window: clientWin})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var done, failed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	ctx := context.Background()
	t0 := time.Now()
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				if _, err := c.IncMode(ctx, g&(width-1), mode); err != nil {
					failed.Add(1)
					return
				}
				done.Add(1)
			}
		}(g)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	if f := failed.Load(); f != 0 {
		return 0, fmt.Errorf("closed loop %v: %d callers failed", mode, f)
	}
	return float64(done.Load()) / time.Since(t0).Seconds(), nil
}

// socketLeg sends TInc datagrams over a real loopback UDP socket for
// dur with at most two batches outstanding, reading and admitting them
// on a second goroutine. Softirq time on this VM is charged to the
// process or not at random, so these numbers are a record, not a gate.
func socketLeg(out map[string]float64, tr *tracer, root int, dur time.Duration) error {
	srv := server.New(net0(), server.Options{})
	defer srv.Close()
	o := packetio.Options{Sockets: 1, GSO: true}
	conns, err := packetio.Listen("127.0.0.1:0", o)
	if err != nil {
		return fmt.Errorf("socket leg listen: %w", err)
	}
	rx := conns[0]
	tx, err := packetio.Dial(rx.LocalAddr().String(), o)
	if err != nil {
		rx.Close()
		return fmt.Errorf("socket leg dial: %w", err)
	}
	slot := packetio.SlotSize
	if rx.Segmented() {
		slot = packetio.GROSlotSize
		out["packetio.gso_active"] = 1
	}
	pi := srv.NewPacketIngest()
	var received atomic.Int64
	var reads int64
	var readUS []float64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		rb := packetio.NewBatchSized(packetio.MaxBatch, slot)
		for {
			t0 := time.Now()
			if _, err := rx.ReadBatch(rb); err != nil {
				return // closed below
			}
			t1 := time.Now()
			pi.IngestBatch(rb)
			frames := 0
			for i := 0; i < rb.Len(); i++ {
				frames++
				if seg := rb.SegSize(i); seg > 0 {
					frames += (len(rb.Packet(i))+seg-1)/seg - 1
				}
			}
			reads++
			readUS = append(readUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
			if reads%harnessSpanStep == 0 {
				tr.add("packetio.ReadBatch", root, uint64(reads), t0.UnixNano(), t1.UnixNano())
			}
			received.Add(int64(frames))
		}
	}()
	wb := packetio.NewBatch(packetio.MaxBatch)
	var f wire.Frame
	enc := func(dst []byte) []byte {
		p, _ := wire.AppendFrame(dst, &f) // a TInc always encodes
		return p
	}
	var sent, lost int64
	var writeUS []float64
	var sendErr error
	lastProgress, lastRecv := time.Now(), int64(0)
	for t0 := time.Now(); time.Since(t0) < dur && sendErr == nil; {
		got := received.Load()
		if got != lastRecv {
			lastProgress, lastRecv = time.Now(), got
		} else if time.Since(lastProgress) > 50*time.Millisecond {
			lost, lastProgress = sent-got, time.Now() // the kernel dropped them; move on
		}
		if sent-lost-got > packetio.MaxBatch {
			time.Sleep(20 * time.Microsecond)
			continue
		}
		wb.Reset()
		for i := 0; i < packetio.MaxBatch; i++ {
			f = wire.Frame{Type: wire.TInc, ID: dedupID(0, uint64(sent)+uint64(i)), Wire: int64(i & (width - 1))}
			wb.AppendWith(enc)
		}
		w0 := time.Now()
		n, err := tx.WriteBatch(wb)
		w1 := time.Now()
		if err != nil {
			sendErr = fmt.Errorf("socket leg write: %w", err)
		}
		sent += int64(n)
		writeUS = append(writeUS, float64(w1.Sub(w0).Nanoseconds())/1e3)
		if len(writeUS)%harnessSpanStep == 0 {
			tr.add("packetio.WriteBatch", root, uint64(sent), w0.UnixNano(), w1.UnixNano())
		}
	}
	// Give the last batches time to arrive, then stop the reader before
	// the server closes: ingest after Close panics (ROADMAP P0(b)).
	for t0 := time.Now(); received.Load() < sent && time.Since(t0) < 100*time.Millisecond; {
		time.Sleep(time.Millisecond)
	}
	tx.Close()
	rx.Close()
	<-readerDone
	if sendErr != nil {
		return sendErr
	}
	out["packetio.write_us_per_batch"] = median(writeUS)
	out["packetio.read_us_per_batch"] = median(readUS)
	if reads > 0 {
		out["packetio.dgrams_per_read"] = float64(received.Load()) / float64(reads)
	}
	if sent > 0 {
		srv.Close()
		out["packetio.loopback_goodput_frac"] = float64(srv.Issued()) / float64(sent)
	}
	return nil
}

// stageP50 is the median duration, in µs, of the flight recorder spans
// of one stage and mode. The server's own Stages histograms have
// power-of-two buckets, too coarse for a median; the spans are exact.
func stageP50(spans []flightrec.Span, stage flightrec.Stage, mode uint8) float64 {
	var v []float64
	for _, s := range spans {
		if s.Stage == stage && (s.Mode == mode || stage == flightrec.StageServerFlush) {
			v = append(v, float64(s.End-s.Start)/1e3)
		}
	}
	return median(v)
}

// layerMetrics turns one traced leg into the per-layer report. plain is
// the untraced leg of the same run, the base of trace_overhead_frac.
func layerMetrics(out map[string]float64, w workloadDef, plain, traced *leg) {
	for k, v := range traced.parts {
		out[k] = v
	}
	loadgenMetrics(out, traced)
	if base := plain.cpuPerOpUS(); base > 0 {
		out["loadgen.trace_overhead_frac"] = traced.cpuPerOpUS()/base - 1
	}
	s := traced.snap
	if s == nil {
		return
	}
	mode := uint8(w.mode)
	// The server's counters cover its whole life, warm-up included, and
	// so does its count of values issued.
	if ops := float64(traced.issued); ops > 0 {
		out["client.frames_per_op"] = float64(s.FramesIn) / ops
		out["server.flushes_per_op"] = float64(s.Flushes) / ops
		out["server.bytes_out_per_op"] = float64(s.BytesOut) / ops
	}
	// The client keeps no retry counter; every retry it makes answers a
	// refusal the server counted.
	out["client.retries"] = float64(s.Backpressure + s.Timeouts)
	out["client.combine_p50_us"] = stageP50(traced.cliSpans, flightrec.StageClientCombine, mode)
	out["client.rpc_p50_us"] = stageP50(traced.cliSpans, flightrec.StageClientRPC, mode)
	if s.Sweeps > 0 {
		out["server.reqs_per_sweep"] = float64(s.SweepReqs) / float64(s.Sweeps)
		out["server.tokens_per_sweep"] = float64(s.SweepTokens) / float64(s.Sweeps)
	}
	out["server.queue_max"] = float64(s.QueueMax)
	out["server.mailbox_p50_us"] = stageP50(traced.srvSpans, flightrec.StageServerMailbox, mode)
	out["server.sweep_p50_us"] = stageP50(traced.srvSpans, flightrec.StageServerSweep, mode)
	out["server.traverse_p50_us"] = stageP50(traced.srvSpans, flightrec.StageServerTraverse, mode)
	out["server.flush_p50_us"] = stageP50(traced.srvSpans, flightrec.StageServerFlush, mode)
	out["server.lin_wait_p50_us"] = stageP50(traced.srvSpans, flightrec.StageServerLINWait, mode)
	out["server.backpressure"] = float64(s.Backpressure)
	out["server.timeouts"] = float64(s.Timeouts)
	out["server.evictions"] = float64(s.Evictions)
	out["server.udp_rejected"] = float64(s.UDPRejected)
	out["server.udp_dropped"] = float64(s.UDPDropped)
}
