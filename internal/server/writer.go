package server

import (
	"bufio"
	"time"

	"repro/internal/flightrec"
	"repro/internal/wire"
)

// The writer: each connection's writer gathers every reply already
// queued, by its reader (door.go) or a sweeper (sweep.go), into its
// buffered encoder and flushes once when the queue drains, so the replies
// one sweep deals to a pipelined connection share one syscall while a
// lone reply goes out at once. A byte threshold flushes mid-gather under
// a sustained burst. The writer never holds a reply back to wait for
// companions.

// flushBytes is the write-buffer fill at which the writer flushes
// mid-gather, bounding response latency under sustained bursts and
// keeping writes under the kernel's coalescing sweet spot.
const flushBytes = 16 << 10

// outMsg is one queued reply: the frame to encode and, for a traced
// reply, when it was enqueued (the flush span's start) and its mode.
type outMsg struct {
	f     wire.Frame
	enqNS int64 // traced replies: when the reply was enqueued (flush span start)
	mode  uint8 // traced replies: 0 = SC, 1 = LIN
}

// writeLoop drains the connection's response queue into a buffered
// encoder: it gathers everything queued, then flushes once — the server's
// group commit — with a mid-gather flush when the buffer passes
// flushBytes. Encoding reuses one scratch buffer, so the steady state
// writes allocate nothing.
func (c *conn) writeLoop() {
	defer c.s.writerWg.Done()
	bw := bufio.NewWriterSize(c.nc, 32<<10)
	st := c.s.opt.Stats
	fl := c.s.flight
	var scratch []byte
	broken := false
	unflushed := 0 // frames written into bw since the last flush

	// Flush-stage accounting: when the batch's first frame landed in the
	// buffer (histogram), and which traced replies are waiting in it (one
	// server_flush span each, closed when the flush happens).
	type flushPend struct {
		trace uint64
		mode  uint8
		enq   int64
	}
	var batchStart time.Time
	var tpend []flushPend

	flush := func() {
		if broken || unflushed == 0 {
			return
		}
		if err := bw.Flush(); err != nil {
			broken = true
			c.markDead()
			return
		}
		if st != nil {
			st.flushes.Add(1)
		}
		if st != nil || len(tpend) > 0 {
			fnow := c.s.clk.Now()
			if st != nil && !batchStart.IsZero() {
				st.stageRecord(stageFlush, c.id, fnow.Sub(batchStart))
			}
			if len(tpend) > 0 {
				fNS := fnow.UnixNano()
				for _, p := range tpend {
					fl.RecordNS(p.trace, flightrec.StageServerFlush, p.mode, -1, p.enq, fNS)
				}
				tpend = tpend[:0]
			}
		}
		batchStart = time.Time{}
		unflushed = 0
	}
	// writeScratch ships the frame already encoded in scratch; split from
	// write so a duplicate-frame fault re-sends the identical bytes
	// without re-encoding (the reply's Rs slice is recycled into the pool
	// at encode time, exactly once).
	writeScratch := func() {
		if broken || len(scratch) == 0 {
			return
		}
		if _, err := bw.Write(scratch); err != nil {
			broken = true
			c.markDead()
			return
		}
		unflushed++
		if st != nil && unflushed == 1 {
			batchStart = c.s.clk.Now()
		}
		if st != nil {
			st.framesOut.Add(1)
			st.bytesOut.Add(uint64(len(scratch)))
		}
		if bw.Buffered() >= flushBytes {
			if st != nil {
				st.flushThreshold.Add(1)
			}
			flush()
		}
	}
	write := func(m *outMsg) {
		if broken {
			return
		}
		if fl != nil && m.f.Trace != 0 && m.enqNS != 0 {
			tpend = append(tpend, flushPend{m.f.Trace, m.mode, m.enqNS})
		}
		var err error
		scratch, err = wire.AppendFrame(scratch[:0], &m.f)
		if m.f.Rs != nil {
			putRanges(m.f.Rs) // encoded (or fatally broken); recycle
			m.f.Rs = nil
		}
		if err != nil {
			// Server-built frames always encode; treat failure as fatal
			// for this connection rather than corrupting the stream.
			broken = true
			c.markDead()
			return
		}
		writeScratch()
	}
	handle := func(m outMsg) {
		n := c.faults(false)
		if n == 0 {
			return
		}
		write(&m)
		if n == 2 {
			writeScratch()
		}
	}

	for {
		var m outMsg
		var ok bool
		select {
		case m, ok = <-c.out:
		case <-c.dead:
			return // abandoned connection: discard whatever is still queued
		}
		// Handle m and everything queued behind it, then flush once.
		for more := ok; more && !broken; {
			handle(m)
			select {
			case m, ok = <-c.out:
				more = ok
			default:
				more = false
			}
		}
		flush()
		if !ok {
			return // server Close: everything queued is now flushed
		}
	}
}
