package dst

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/wire"
)

// OpKind is one workload operation type.
type OpKind int

const (
	OpInc   OpKind = iota // one increment (SC or LIN)
	OpBatch               // one k-value batch reservation
	OpRead                // read the issued count
)

func (k OpKind) String() string {
	switch k {
	case OpInc:
		return "inc"
	case OpBatch:
		return "batch"
	default:
		return "read"
	}
}

// opSpec is one planned operation of one worker: what to issue and how
// long to think before issuing it.
type opSpec struct {
	Kind  OpKind
	Mode  wire.Mode
	Wire  int
	K     int
	Think time.Duration
}

// UDPDatagram is one planned fire-and-forget increment: when to inject
// it, the dedup id and payload it carries, and whether it is a seeded
// retransmission of an earlier datagram (same id, wire and k — the
// replay window must reject it).
type UDPDatagram struct {
	At     time.Duration // injection time, offset from clock.SimEpoch
	ID     uint64        // dedup id (replays reuse their original's)
	Wire   int
	K      int64
	Replay bool
}

// UDPSegment is one planned frame inside a segmented super-datagram:
// the dedup id and payload it carries, and whether it is a seeded
// retransmission of an earlier intact segment (same id, wire and k —
// the replay window must reject it, even when the original rode the
// same super).
type UDPSegment struct {
	ID     uint64
	Wire   int
	K      int64
	Replay bool
}

// UDPSuper is one planned GSO super-datagram: a stride of equal-size
// wire frames the kernel would deliver coalesced into one GRO buffer,
// plus at most one framing fault. The generator keeps every frame in
// one super the same encoded length (homogeneous frame kind, ids in
// one uvarint band), because that equality is what the stride carving
// assumes — and what the faults below deliberately break.
//
//   - Trunc > 0 cuts that many bytes off the payload tail (clamped to
//     stride-1): every segment but the last admits normally, the short
//     tail must reject as bad_segment.
//   - Skew != 0 shifts the declared stride off the true frame size:
//     every carved segment mis-frames, so all ceil(len/stride) of them
//     must reject as bad_segment and nothing reaches the replay window.
//
// Supers need at least two frames — a single-frame payload is
// indistinguishable from an unsegmented datagram at the carve seam.
type UDPSuper struct {
	At     time.Duration // injection time, offset from clock.SimEpoch
	Trunc  int           // bytes cut from the payload tail (0: intact)
	Skew   int           // declared-stride offset from the frame size (0: exact)
	Frames []UDPSegment
}

// frame materializes one planned segment as its wire frame.
func (g UDPSegment) frame() wire.Frame {
	f := wire.Frame{Type: wire.TInc, ID: g.ID, Wire: int64(g.Wire)}
	if g.K > 1 {
		f.Type, f.K = wire.TIncBatch, g.K
	}
	return f
}

// encodedSize returns the segment's on-wire size. Within one generated
// super every segment encodes to the same size by construction.
func (g UDPSegment) encodedSize() int {
	f := g.frame()
	enc, err := wire.AppendFrame(nil, &f)
	if err != nil {
		return 0
	}
	return len(enc)
}

// accounting tallies one super against the admission chain: the count
// its unique intact segments mint, the replay segments the window must
// reject, and the segments the strict framing check must reject.
func (u *UDPSuper) accounting() (mint int64, replays, badSegs int) {
	if len(u.Frames) == 0 {
		return
	}
	fs := u.Frames[0].encodedSize()
	if u.Skew != 0 {
		// A mis-strided super rejects wholesale: every carved segment is
		// either a frame plus leftover bytes or a mid-frame slice.
		total := fs * len(u.Frames)
		seg := fs + u.Skew
		if seg < 1 {
			seg = 1
		}
		return 0, 0, (total + seg - 1) / seg
	}
	intact := len(u.Frames)
	if u.Trunc > 0 {
		intact--
		badSegs++
	}
	for _, g := range u.Frames[:intact] {
		if g.Replay {
			replays++
		} else {
			mint += g.K
		}
	}
	return
}

// Scenario is the full expansion of one seed: topology, workload,
// tuning and fault schedule. Everything the harness needs to run — and
// everything the trace header needs to record — lives here, derived
// purely from the seed.
type Scenario struct {
	Seed    uint64
	Flavor  string // clean | faulty | partition | pressure | mixed | udp
	Width   int
	Workers int
	Plans   [][]opSpec

	// UDP is the fire-and-forget datagram plan (udp flavor): the harness
	// replays it through the server's real admission path on the
	// simulated clock, duplicates and all.
	UDP []UDPDatagram

	// UDPSupers is the segmented-datagram plan (udp flavor, phase 2):
	// GSO super-datagrams the harness carves through the same admission
	// path one stride at a time, truncations, mis-strides and in-super
	// replays included.
	UDPSupers []UDPSuper

	// Server tuning.
	Mailbox      int
	SrvOpTimeout time.Duration

	// Client tuning.
	Retries     int
	OpTimeout   time.Duration
	DialTimeout time.Duration
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// Transport.
	JitterMin, JitterMax time.Duration
	Partitions           []Partition

	// Frame faults (server-side seam, both directions).
	DropProb, DupProb, DelayProb float64
	DelayMin, DelayMax           time.Duration

	// Backend latency (pressure scenarios only).
	BackendLatMin, BackendLatMax time.Duration
}

// CleanRun reports whether the scenario injects no adversity at all — in
// which case every operation must succeed and the delivered values must
// be exactly [0, issued), gap-free.
func (s *Scenario) CleanRun() bool {
	return s.DropProb == 0 && s.DupProb == 0 && s.DelayProb == 0 &&
		len(s.Partitions) == 0 && s.BackendLatMax == 0 && s.SrvOpTimeout == 0
}

// UDPActive reports whether the scenario carries any datagram plan —
// plain singles, segmented supers, or both.
func (s *Scenario) UDPActive() bool {
	return len(s.UDP) > 0 || len(s.UDPSupers) > 0
}

// UDPExpected returns the total count the plan's unique datagrams mint,
// segmented supers included (a truncated tail or a mis-strided super
// never mints). When nothing is shed, the server's issued counter must
// exceed the TCP-delivered values by exactly this much — any more and a
// replay or damaged segment minted, any less and a unique datagram was
// lost.
func (s *Scenario) UDPExpected() int64 {
	var n int64
	for _, d := range s.UDP {
		if !d.Replay {
			n += d.K
		}
	}
	for i := range s.UDPSupers {
		mint, _, _ := s.UDPSupers[i].accounting()
		n += mint
	}
	return n
}

// UDPReplays returns the number of planned retransmissions that reach
// the replay window — singles plus intact super segments. The window
// must reject every one of them. (A replay slot inside a mis-strided
// super never gets that far: the framing check rejects it first.)
func (s *Scenario) UDPReplays() int {
	n := 0
	for _, d := range s.UDP {
		if d.Replay {
			n++
		}
	}
	for i := range s.UDPSupers {
		_, replays, _ := s.UDPSupers[i].accounting()
		n += replays
	}
	return n
}

// UDPBadSegs returns the number of segments the strict segmented
// framing check must reject: one per truncated tail, all carved
// segments of a mis-strided super.
func (s *Scenario) UDPBadSegs() int {
	n := 0
	for i := range s.UDPSupers {
		_, _, bad := s.UDPSupers[i].accounting()
		n += bad
	}
	return n
}

// UDPAdmitted returns the number of admission units — plain datagrams
// plus super segments — the server must accept: everything planned
// minus replays and damaged segments.
func (s *Scenario) UDPAdmitted() uint64 {
	n := 0
	for _, d := range s.UDP {
		if !d.Replay {
			n++
		}
	}
	for i := range s.UDPSupers {
		u := &s.UDPSupers[i]
		if u.Skew != 0 {
			continue
		}
		intact := len(u.Frames)
		if u.Trunc > 0 {
			intact--
		}
		for _, g := range u.Frames[:intact] {
			if !g.Replay {
				n++
			}
		}
	}
	return uint64(n)
}

// faultsActive reports whether the frame-fault seam is installed.
func (s *Scenario) faultsActive() bool {
	return s.DropProb > 0 || s.DupProb > 0 || s.DelayProb > 0
}

// overrides pins scenario fields that normally come from the seed — the
// seam the daemon-configuration tests use to push countd's and
// countload's flag-derived settings through the simulation while the
// rest of the scenario (jitter, faults, partitions, think times) still
// varies per seed. Zero-valued fields defer to the seed.
type overrides struct {
	Width   int // network fan (power of two)
	Workers int // concurrent workload workers (clamped to [1, 16])
	// Mode "lin" makes every operation linearizable; "sc" makes every
	// operation sequentially consistent; "" lets the seed choose the mix.
	Mode string
}

// GenScenario expands a seed into a scenario. The generator enforces the
// constraint the simulation's scheduling discipline needs: any scenario
// that can lose frames or black-hole the transport gives the client a
// positive OpTimeout, sized well above the worst healthy round trip, so
// a lost frame means a bounded retry instead of a hung worker.
func GenScenario(seed uint64) Scenario {
	return genScenarioWith(seed, overrides{})
}

// genScenarioWith is GenScenario with overrides applied between the
// seed's flavor expansion and the workload plan generation, so plans
// respect the pinned width, worker count and mode.
func genScenarioWith(seed uint64, ov overrides) Scenario {
	r := func(k, a uint64) uint64 { return mix3(seed, k, a, 0) }
	sc := Scenario{Seed: seed}

	switch f := r(0x01, 0) % 100; {
	case f < 30:
		sc.Flavor = "clean"
	case f < 55:
		sc.Flavor = "faulty"
	case f < 75:
		sc.Flavor = "partition"
	case f < 90:
		sc.Flavor = "pressure"
	case f < 95:
		sc.Flavor = "mixed"
	default:
		sc.Flavor = "udp"
	}

	sc.Width = []int{2, 4, 8}[r(0x02, 0)%3]
	sc.Workers = 2 + int(r(0x03, 0)%4)
	ops := 3 + int(r(0x04, 0)%6)

	sc.JitterMin = 5*time.Microsecond + time.Duration(r(0x05, 0)%20)*time.Microsecond
	sc.JitterMax = sc.JitterMin + 20*time.Microsecond + time.Duration(r(0x06, 0)%300)*time.Microsecond

	sc.Mailbox = 64
	sc.Retries = 2 + int(r(0x08, 0)%4)
	sc.DialTimeout = 50 * time.Millisecond
	sc.BackoffBase = 200*time.Microsecond + time.Duration(r(0x09, 0)%800)*time.Microsecond
	sc.BackoffCap = 4*sc.BackoffBase + time.Duration(r(0x0a, 0)%4000)*time.Microsecond

	switch sc.Flavor {
	case "faulty", "mixed":
		sc.DropProb = float64(1+r(0x10, 0)%7) / 100
		sc.DupProb = float64(1+r(0x11, 0)%7) / 100
		sc.DelayProb = float64(10+r(0x12, 0)%25) / 100
		sc.DelayMin = 50 * time.Microsecond
		sc.DelayMax = 200*time.Microsecond + time.Duration(r(0x13, 0)%1300)*time.Microsecond
	case "pressure":
		sc.BackendLatMin = 500 * time.Microsecond
		sc.BackendLatMax = sc.BackendLatMin + time.Duration(r(0x14, 0)%1500)*time.Microsecond
		sc.Mailbox = 1 + int(r(0x15, 0)%2)
		sc.Workers = 4 + int(r(0x17, 0)%2)
		if r(0x16, 0)%2 == 0 {
			sc.SrvOpTimeout = 2 * sc.BackendLatMax
		}
	}
	if sc.Flavor == "partition" || sc.Flavor == "mixed" {
		n := 1 + int(r(0x18, 0)%2)
		at := 2*time.Millisecond + time.Duration(r(0x19, 0)%20)*time.Millisecond
		for i := 0; i < n; i++ {
			dur := 2*time.Millisecond + time.Duration(r(0x1a, uint64(i))%15)*time.Millisecond
			sc.Partitions = append(sc.Partitions, Partition{Start: at, End: at + dur})
			at += dur + 5*time.Millisecond + time.Duration(r(0x1b, uint64(i))%10)*time.Millisecond
		}
	}

	// Overrides land here: after the flavor expansion (so they win)
	// and before the timeout sizing and plan generation (so both respect
	// the pinned values).
	if ov.Width > 0 {
		sc.Width = ov.Width
	}
	if ov.Workers > 0 {
		sc.Workers = min(max(ov.Workers, 1), 16)
	}

	// OpTimeout: mandatory whenever a request or response can vanish
	// (dropped frame, black-holed transport) or stall behind a saturated
	// backend or a server-side deadline; sized so a healthy round trip
	// never trips it.
	minOp := 3*sc.JitterMax + 3*sc.DelayMax + 8*grid + time.Millisecond +
		time.Duration(sc.Workers)*(sc.BackendLatMax+2*grid)
	switch {
	case sc.faultsActive() || len(sc.Partitions) > 0 || sc.BackendLatMax > 0 || sc.SrvOpTimeout > 0:
		sc.OpTimeout = minOp + time.Duration(r(0x1c, 0)%uint64(2*minOp))
	case r(0x1d, 0)%2 == 0:
		sc.OpTimeout = minOp // clean run, timeout armed but never expected to fire
	}

	// LIN fraction (percent). LIN rides the sweeper like SC, so pressure
	// scenarios mix it in too: a sweeper asleep in the backend holds both.
	linFrac := []uint64{0, 30, 100}[r(0x1e, 0)%3]
	switch ov.Mode {
	case "lin":
		linFrac = 100
	case "sc":
		linFrac = 0
	}

	// The udp flavor rides a clean TCP base — its adversity is the
	// datagram plan itself: fire-and-forget SC increments with seeded
	// retransmissions, replayed through the server's real UDP admission
	// path by the harness. Generated after the overrides so wires respect
	// a pinned width. Each replay copies an earlier unique datagram
	// verbatim (a retransmit is byte-identical on the wire), and every
	// injection time is snapped onto the scheduling grid plus the
	// injector's own sub-grid offset so no other actor family shares a
	// wake-up deadline with it.
	if sc.Flavor == "udp" {
		const udpInjectOffset = 14741 * time.Nanosecond
		n := 24 + int(r(0x30, 0)%36)
		at := 400 * time.Microsecond
		var uniq []UDPDatagram
		for i := 0; i < n; i++ {
			u := uint64(i)
			at += 40*time.Microsecond + time.Duration(r(0x31, u)%900)*time.Microsecond
			var d UDPDatagram
			if len(uniq) > 0 && r(0x32, u)%100 < 25 {
				d = uniq[int(r(0x33, u)%uint64(len(uniq)))]
				d.Replay = true
			} else {
				d = UDPDatagram{
					ID:   uint64(len(uniq)) + 1,
					Wire: int(r(0x34, u) % uint64(sc.Width)),
					K:    1,
				}
				if r(0x35, u)%100 < 25 {
					d.K = 2 + int64(r(0x36, u)%4)
				}
				uniq = append(uniq, d)
			}
			d.At = at - at%grid + udpInjectOffset
			sc.UDP = append(sc.UDP, d)
		}

		// Segmented supers ride after the singles. Equal stride demands
		// equal encoded size, so each super is homogeneous: all TInc, or
		// all TIncBatch with single-byte k — and ids come from the two-byte
		// uvarint band (0x100+), disjoint from the singles' one-byte ids.
		// Replays copy an earlier intact segment of the same kind, possibly
		// from the same super (the duplicate-inside-one-stride case); a
		// damaged super contributes no originals, because none of its
		// segments ever enter the replay window.
		nsup := int(r(0x38, 0) % 4)
		supID := uint64(0x100)
		var origInc, origBatch []UDPSegment
		for si := 0; si < nsup; si++ {
			u := uint64(0x100 + si)
			at += 60*time.Microsecond + time.Duration(r(0x39, u)%700)*time.Microsecond
			sup := UDPSuper{At: at - at%grid + udpInjectOffset}
			batch := r(0x3a, u)%2 == 0
			nf := 2 + int(r(0x3b, u)%15)
			switch f := r(0x3c, u) % 100; {
			case f < 15:
				sup.Trunc = 1 + int(r(0x3d, u)%6) // min frame is 13 bytes, so ≤ stride-1
			case f < 25:
				sup.Skew = []int{1, -1}[r(0x3e, u)%2]
			}
			orig := &origInc
			if batch {
				orig = &origBatch
			}
			for fi := 0; fi < nf; fi++ {
				fu := u<<8 | uint64(fi)
				// Only segments the admission chain will fully decode can
				// serve as replays or originals: a mis-strided super never
				// reaches the window, a truncated tail rejects as bad_segment.
				intactPos := sup.Skew == 0 && (sup.Trunc == 0 || fi < nf-1)
				if intactPos && len(*orig) > 0 && r(0x3f, fu)%100 < 20 {
					g := (*orig)[int(r(0x40, fu)%uint64(len(*orig)))]
					g.Replay = true
					sup.Frames = append(sup.Frames, g)
					continue
				}
				g := UDPSegment{ID: supID, Wire: int(r(0x41, fu) % uint64(sc.Width)), K: 1}
				supID++
				if batch {
					g.K = 2 + int64(r(0x42, fu)%4)
				}
				sup.Frames = append(sup.Frames, g)
				if intactPos {
					*orig = append(*orig, g)
				}
			}
			sc.UDPSupers = append(sc.UDPSupers, sup)
		}
	}

	// Pressure scenarios think briefly so requests pile up behind the
	// stalled backend — that pile-up is what makes the tiny mailbox shed.
	thinkCap := uint64(1400)
	if sc.Flavor == "pressure" {
		thinkCap = 150
	}
	sc.Plans = make([][]opSpec, sc.Workers)
	for w := 0; w < sc.Workers; w++ {
		plan := make([]opSpec, ops)
		for i := range plan {
			d := func(k uint64) uint64 { return mix3(seed, k, uint64(w), uint64(i)) }
			op := opSpec{
				Mode:  wire.ModeSC,
				Wire:  int(d(0x20) % uint64(sc.Width)),
				Think: 50*time.Microsecond + time.Duration(d(0x21)%thinkCap)*time.Microsecond + time.Duration(w*1009+i*13)*time.Nanosecond,
			}
			switch k := d(0x22) % 100; {
			case k < 60:
				op.Kind = OpInc
			case k < 85:
				op.Kind = OpBatch
				op.K = 2 + int(d(0x23)%5)
			default:
				op.Kind = OpRead
			}
			if op.Kind != OpRead && d(0x24)%100 < linFrac {
				op.Mode = wire.ModeLIN
			}
			plan[i] = op
		}
		sc.Plans[w] = plan
	}
	return sc
}

// Header renders the scenario as deterministic trace-header lines, one
// field per line, so a trace is self-describing and byte-stable.
func (s *Scenario) Header() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# seed=%d flavor=%s width=%d workers=%d\n", s.Seed, s.Flavor, s.Width, s.Workers)
	fmt.Fprintf(&b, "# server mailbox=%d optimeout=%d\n", s.Mailbox, s.SrvOpTimeout.Nanoseconds())
	fmt.Fprintf(&b, "# client retries=%d optimeout=%d dialtimeout=%d backoff=%d/%d\n",
		s.Retries, s.OpTimeout.Nanoseconds(), s.DialTimeout.Nanoseconds(),
		s.BackoffBase.Nanoseconds(), s.BackoffCap.Nanoseconds())
	fmt.Fprintf(&b, "# net jitter=%d..%d drop=%.2f dup=%.2f delay=%.2f@%d..%d\n",
		s.JitterMin.Nanoseconds(), s.JitterMax.Nanoseconds(),
		s.DropProb, s.DupProb, s.DelayProb, s.DelayMin.Nanoseconds(), s.DelayMax.Nanoseconds())
	fmt.Fprintf(&b, "# backend lat=%d..%d\n", s.BackendLatMin.Nanoseconds(), s.BackendLatMax.Nanoseconds())
	for _, p := range s.Partitions {
		fmt.Fprintf(&b, "# partition %d..%d\n", p.Start.Nanoseconds(), p.End.Nanoseconds())
	}
	if len(s.UDP) > 0 {
		fmt.Fprintf(&b, "# udp n=%d replays=%d expected=%d\n", len(s.UDP), s.UDPReplays(), s.UDPExpected())
		for i, d := range s.UDP {
			fmt.Fprintf(&b, "# udp %d at=%d id=%d wire=%d k=%d replay=%v\n",
				i, d.At.Nanoseconds(), d.ID, d.Wire, d.K, d.Replay)
		}
	}
	if len(s.UDPSupers) > 0 {
		fmt.Fprintf(&b, "# udpgso n=%d admitted=%d badsegs=%d\n",
			len(s.UDPSupers), s.UDPAdmitted(), s.UDPBadSegs())
		for i := range s.UDPSupers {
			u := &s.UDPSupers[i]
			fmt.Fprintf(&b, "# udpgso %d at=%d trunc=%d skew=%d segs=", i, u.At.Nanoseconds(), u.Trunc, u.Skew)
			for j, g := range u.Frames {
				if j > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%d/%d/%d/%v", g.ID, g.Wire, g.K, g.Replay)
			}
			b.WriteByte('\n')
		}
	}
	writePlans(&b, s.Plans)
	return b.String()
}

// writePlans renders every worker's op plan as trace-header lines, the
// part both flavors' headers share.
func writePlans(b *strings.Builder, plans [][]opSpec) {
	for w, plan := range plans {
		fmt.Fprintf(b, "# plan w%d:", w)
		for _, op := range plan {
			fmt.Fprintf(b, " %s/%s/w%d/k%d/t%d", op.Kind, modeName(op.Mode), op.Wire, op.K, op.Think.Nanoseconds())
		}
		b.WriteByte('\n')
	}
}

// modeName is a consistency mode's trace spelling.
func modeName(m wire.Mode) string {
	if m == wire.ModeLIN {
		return "lin"
	}
	return "sc"
}
