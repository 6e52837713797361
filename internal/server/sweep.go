package server

import (
	"time"

	"repro/internal/fault"
	"repro/internal/flightrec"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// req is one pending increment in the mailbox.
type req struct {
	c     *conn // nil: fire-and-forget (UDP)
	id    uint64
	wire  int
	k     int64
	folds uint32 // >1: UDP datagrams aggregated into this post (stats weight)
	batch bool   // answer with TRanges (TIncBatch) vs TValue (TInc)
	mode  uint8  // 0 = SC, 1 = LIN: which stats, spans and flush mode it counts under
	enq   time.Time
	trace uint64 // nonzero: record stage spans for this request
}

// weight is how many requests r stands for — 1 for TCP requests, the
// folded datagram count for aggregated UDP posts — so latency histograms
// keep per-request semantics under aggregation. The op counters count
// r.k, the increments.
func (r req) weight() int {
	if r.folds > 1 {
		return int(r.folds)
	}
	return 1
}

// post offers r to its mailbox without blocking — the LIN mailbox for a
// LIN request when there is one, else the main one; false means the
// mailbox is full and the request must be shed.
func (s *Server) post(r req) bool {
	mail := s.mail
	if r.mode == 1 && s.linMail != nil {
		mail = s.linMail
	}
	select {
	case mail <- r:
		return true
	default:
		return false
	}
}

// combine is a sweeper's loop: it drains mail, folds every pending
// increment into one sweep of be, and deals the resulting ranges back to
// the requests in arrival order.
func (s *Server) combine(mail chan req, be Backend) {
	defer s.combWg.Done()
	limit := s.opt.BatchLimit
	sw := &sweeper{s: s, mail: mail, be: be}
	pending := make([]req, 0, limit)
	for {
		r, ok := <-mail
		if !ok {
			return // mailbox closed and fully drained
		}
		pending = append(pending[:0], r)
	gather:
		for len(pending) < limit {
			select {
			case r2, ok2 := <-mail:
				if !ok2 {
					// Closed mid-gather: sweep what we hold; the next
					// blocking receive observes the close and exits.
					break gather
				}
				pending = append(pending, r2)
			default:
				break gather
			}
		}
		sw.sweep(pending)
	}
}

// sweeper holds one sweeper's mailbox, backend and reusable sweep
// state: the backend appends each sweep's ranges into rsbuf, so
// steady-state sweeps allocate nothing for their results.
type sweeper struct {
	s     *Server
	mail  chan req
	be    Backend
	rsbuf []runtime.Range // reused sweep-result buffer (consumed before the next sweep)
}

// rangeFree recycles TRanges reply slices between the sweepers that
// build them and the writers that encode them. A buffered channel of
// slice headers rather than a sync.Pool: headers pass by value, so
// neither side pays a boxing allocation per transfer. The pool is
// best-effort — slices on frames dropped by a dying connection are
// simply collected.
var rangeFree = make(chan []wire.Range, 1024)

// getRanges returns an empty reply slice with capacity for hint ranges.
func getRanges(hint int) []wire.Range {
	select {
	case rs := <-rangeFree:
		if cap(rs) >= hint {
			return rs[:0]
		}
	default:
	}
	if hint < 4 {
		hint = 4
	}
	return make([]wire.Range, 0, hint)
}

// putRanges recycles a reply slice once its frame has been encoded.
func putRanges(rs []wire.Range) {
	if cap(rs) == 0 {
		return
	}
	select {
	case rangeFree <- rs[:0]:
	default:
	}
}

// sweep executes one combined pass over the backend.
func (sw *sweeper) sweep(pending []req) {
	s := sw.s
	st := s.opt.Stats
	fl := s.flight
	timed := st != nil || fl != nil
	now := s.clk.Now()

	// Expire requests that overstayed the mailbox.
	live := pending[:0]
	for _, r := range pending {
		if s.opt.OpTimeout > 0 && now.Sub(r.enq) > s.opt.OpTimeout {
			if st != nil {
				st.timeouts.Add(uint64(r.weight()))
			}
			s.anomaly("mailbox_timeout", r.trace)
			if r.c != nil {
				m := errFrame(r.id, r.trace, fault.ErrTimeout)
				m.mode = r.mode
				if r.trace != 0 {
					m.enqNS = now.UnixNano()
				}
				r.c.trySend(m)
			}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	if st != nil {
		st.sweeps.Add(1)
		st.sweepReqs.Add(uint64(len(live)))
		st.observeQueue(len(sw.mail))
	}

	// One backend call for the whole sweep, entering on the first live
	// request's wire. The sweeper is the backend's only caller, so the
	// call starts and ends at quiescence and hands out exactly the next
	// total values whatever wire it enters on (DESIGN.md "Entry wires").
	var total int64
	for _, r := range live {
		total += r.k
	}
	var t0, t1 time.Time
	if timed {
		t0 = s.clk.Now()
	}
	rs, sweepErr := sw.be.Mint(sw.rsbuf[:0], live[0].wire, int(total))
	sw.rsbuf = rs
	if timed {
		t1 = s.clk.Now()
	}
	if sweepErr != nil {
		// The backend could not mint (a cluster node cut off from its
		// range leader, or a LIN grant that found no leader): shed the
		// whole sweep with a retryable error — nothing was issued, nothing
		// is lost, clients re-issue. UDP posts have no one to answer, so
		// they are counted as dropped.
		for _, r := range live {
			s.anomaly("no_range", r.trace)
			if r.c != nil {
				r.c.trySend(errFrame(r.id, r.trace, sweepErr))
			} else if st != nil {
				st.udpDropped.Add(uint64(r.weight()))
			}
		}
		return
	}
	s.issued.Add(total)
	if st != nil {
		st.sweepTokens.Add(uint64(total))
	}
	// Deal the ranges out to the requests in arrival order: each takes its
	// k values as sub-ranges of the sweep's ranges. Ranges are
	// materialized only for batch requests with a live connection; plain
	// TInc replies need just the first value and UDP requests need nothing
	// at all.
	var per time.Duration
	var nowNS, t0NS, t1NS int64
	if timed {
		// Amortized: the sweep traversed once for all its requests, so
		// each request's traverse share is the sweep cost split evenly.
		per = t1.Sub(t0) / time.Duration(len(live))
		nowNS = now.UnixNano()
		t0NS = t0.UnixNano()
		t1NS = t1.UnixNano()
	}
	ri, off := 0, int64(0)
	for _, r := range live {
		need := r.k
		var out []wire.Range
		if r.c != nil && r.batch {
			// A request's reply spans at most as many ranges as the
			// sweep produced; drawing from the pool (recycled by the
			// writer after encoding) keeps the reply path mostly
			// allocation-free.
			out = getRanges(len(rs))
		}
		first, firstSet := int64(0), false
		for need > 0 {
			cur := rs[ri]
			take := min(cur.Count-off, need)
			if !firstSet {
				first = cur.First + off*cur.Stride
				firstSet = true
			}
			if out != nil {
				out = append(out, wire.Range{
					First:  cur.First + off*cur.Stride,
					Stride: cur.Stride,
					Count:  take,
				})
			}
			off += take
			need -= take
			if off == cur.Count {
				ri++
				off = 0
			}
		}
		if st != nil {
			st.recordSwept(r, s.clk.Since(r.enq), now.Sub(r.enq), t0.Sub(now), per)
		}
		if fl != nil && r.trace != 0 {
			w := int64(r.wire)
			fl.RecordNS(r.trace, flightrec.StageServerMailbox, r.mode, w, r.enq.UnixNano(), nowNS)
			fl.RecordNS(r.trace, flightrec.StageServerSweep, r.mode, w, nowNS, t0NS)
			fl.RecordNS(r.trace, flightrec.StageServerTraverse, r.mode, w, t0NS, t1NS)
		}
		if r.c == nil {
			continue // fire-and-forget
		}
		m := outMsg{f: wire.Frame{Type: wire.TValue, ID: r.id, Trace: r.trace, Value: first}, mode: r.mode}
		if r.batch {
			m = outMsg{f: wire.Frame{Type: wire.TRanges, ID: r.id, Trace: r.trace, Rs: out}, mode: r.mode}
		}
		if r.trace != 0 {
			m.enqNS = t1NS
		}
		r.c.trySend(m)
	}
}

// errFrame builds the TError reply carrying err to request id, with the
// request's trace echoed. Every error reply — shed, expired, refused or
// failed — is built here and encoded by the writer like any other frame.
func errFrame(id, trace uint64, err error) outMsg {
	return outMsg{f: wire.Frame{Type: wire.TError, ID: id, Trace: trace, Code: wire.CodeOf(err), Msg: err.Error()}}
}
