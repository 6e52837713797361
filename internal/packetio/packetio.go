// Package packetio is the kernel-fast UDP datapath of the counting
// service: batched datagram I/O over preallocated packet-buffer rings,
// plus the bounded replay window that makes fire-and-forget increments
// safe to retransmit.
//
// # Why a separate package
//
// The paper's contrast — sequentially consistent counting is
// coordination-free while linearizable counting pays for serialization —
// only becomes a systems headline when the cheapest SC path actually runs
// at hardware speed. A UDP increment carries no response, so its entire
// server-side cost is ingest: one syscall, one validation, one mailbox
// post. This package collapses the syscall term: on Linux, ReadBatch and
// WriteBatch move up to a whole Batch of datagrams per recvmmsg/sendmmsg
// syscall, and Listen can open several sockets sharing one port via
// SO_REUSEPORT so the kernel shards flows across ingest loops. Everywhere
// else (and with Options.Portable) the same API degrades to the classic
// one-ReadFrom-per-datagram loop, so non-Linux builds are unchanged in
// behaviour — only slower.
//
// # Ring layout
//
// A Batch owns one contiguous byte array carved into fixed-size slots
// (SlotSize each) plus a parallel length array. The slots, the iovec and
// mmsghdr scaffolding (on Linux) and the length array are all allocated
// once; steady-state batched reads and writes touch no allocator. A
// datagram larger than SlotSize is truncated by the kernel and will fail
// frame validation downstream — the wire protocol's UDP frames are tens
// of bytes, so the slot size is generous by three orders of magnitude.
//
// # Replay window
//
// Window remembers the last N datagram ids seen by one ingest loop.
// Fire-and-forget delivery means retransmission is the client's only
// recourse, and a retransmitted increment must not count twice: a fresh
// id passes, a recent duplicate is dropped. The window is bounded, so a
// retransmit arriving after N fresher datagrams can still slip through —
// that burns a counter value nobody observes, but can never mint the same
// value for two observers, which is the invariant the simulator's udp
// scenarios pin.
//
// Observe runs once per admitted frame, so it uses no Go map but a ring
// plus an open-addressed index hashed with per-Window random tables: a
// sender cannot aim ids at one probe run.
//
// # Segmentation offload (GSO/GRO)
//
// Batching syscall entries amortizes the mode switch but not the kernel's
// per-message udp_sendmsg/udp_recvmsg work. UDP_SEGMENT (send) hands the
// kernel one large buffer plus a stride; it splits the buffer into
// equal-size on-wire datagrams after the expensive per-call work is done
// once. UDP_GRO (receive) is the mirror: equal-size datagrams from one
// flow coalesce back into a single buffer whose stride arrives in a
// control message, so one recvmmsg slot can carry up to 64 wire frames.
// Options.GSO opts a socket in; a runtime probe (Segmentation) detects
// kernels without the option and falls back to the plain batched path, so
// the offload is a pure accelerator, never a compatibility risk.
package packetio

import (
	"math/bits"
	"math/rand/v2"
	"net"
	"sync/atomic"
)

const (
	// SlotSize is the default per-packet buffer size in a Batch. Datagrams
	// longer than this are truncated on read (and rejected by frame
	// validation); Append refuses payloads that do not fit.
	SlotSize = 2048

	// GROSlotSize is the per-packet buffer size for sockets with UDP_GRO
	// enabled: the kernel may coalesce an entire 64 KiB super-datagram
	// into one slot, so the ring must hold it without truncation.
	GROSlotSize = 64 << 10

	// MaxBatch caps how many datagrams one ReadBatch/WriteBatch moves per
	// syscall. 64 matches the kernel's UIO_MAXIOV sweet spot and keeps a
	// default Batch's ring at 128 KiB.
	MaxBatch = 64

	// MaxSegments is the kernel's cap on datagrams produced by one
	// UDP_SEGMENT send (UDP_MAX_SEGMENTS); packing more frames than this
	// into one slot is rejected on send.
	MaxSegments = 64
)

// Options tunes Listen and Dial.
type Options struct {
	// Sockets is how many sockets Listen opens on the same address via
	// SO_REUSEPORT, each with its own ring and ingest loop, sharded by
	// the kernel's flow hash (default 1). Ignored — clamped to one
	// socket — on platforms without the fast path.
	Sockets int
	// Portable forces the single-socket ReadFrom/WriteTo implementation
	// even where the batched-syscall fast path exists. The before/after
	// benchmark rows and the cross-platform tests run through this.
	Portable bool
	// GSO requests UDP segmentation offload: Listen enables UDP_GRO so
	// coalesced super-datagrams arrive with their stride in a control
	// message, and Dial arms WriteBatch to attach UDP_SEGMENT control
	// messages for slots packed with AppendSegments. Silently ignored —
	// full fallback to the unsegmented path — when Segmentation() is
	// false (non-Linux build, old kernel, or forced off).
	GSO bool
}

func (o Options) withDefaults() Options {
	if o.Sockets <= 0 {
		o.Sockets = 1
	}
	return o
}

// Conn is one batched datagram socket. Implementations are safe for one
// reader and one writer goroutine; a Batch must not be shared between
// concurrent calls.
type Conn interface {
	// ReadBatch blocks until at least one datagram is available, fills
	// b's slots with as many as one syscall returns (up to b.Cap()), and
	// reports how many. After it returns, b.Packet(i) for i < n views
	// datagram i.
	ReadBatch(b *Batch) (int, error)
	// WriteBatch sends b.Len() packets (appended with Append/AppendWith)
	// in as few syscalls as the platform allows and reports how many
	// were handed to the kernel. Only valid on connected sockets (Dial).
	WriteBatch(b *Batch) (int, error)
	// Close unblocks any pending ReadBatch and releases the socket.
	Close() error
	// LocalAddr reports the bound address.
	LocalAddr() net.Addr
	// Segmented reports whether this socket has UDP GSO/GRO engaged:
	// received slots may carry a coalesced stride of frames (SegSize > 0)
	// and slots packed with AppendSegments are split by the kernel on
	// send. False on the fallback paths — every slot is one datagram.
	Segmented() bool
}

// segDisabled force-disables segmentation offload process-wide; see
// DisableSegmentation.
var segDisabled atomic.Bool

// Segmentation reports whether this build and kernel support UDP GSO/GRO
// (probed once per process by asking a throwaway socket for UDP_SEGMENT
// and UDP_GRO). When false, Options.GSO is ignored and every Conn runs
// the unsegmented batched path.
func Segmentation() bool { return !segDisabled.Load() && segmentationOS() }

// DisableSegmentation force-disables GSO/GRO for the whole process, as if
// the kernel probe had failed — the lever for exercising the fallback
// path on a capable kernel (tests, before/after benchmarks). It returns a
// func restoring the previous behaviour.
func DisableSegmentation() (restore func()) {
	segDisabled.Store(true)
	return func() { segDisabled.Store(false) }
}

// Listen opens o.Sockets UDP sockets bound to addr and returns one Conn
// per socket. With more than one socket the kernel load-balances flows
// across them (SO_REUSEPORT); a platform without that fast path gets
// exactly one portable socket regardless of o.Sockets.
func Listen(addr string, o Options) ([]Conn, error) {
	o = o.withDefaults()
	if o.Portable {
		c, err := listenPortable(addr)
		if err != nil {
			return nil, err
		}
		return []Conn{c}, nil
	}
	return listenOS(addr, o)
}

// Dial opens a connected UDP socket to addr — the client side of the
// fire-and-forget path. Connected, so WriteBatch needs no per-packet
// destination and ICMP errors surface as send errors.
func Dial(addr string, o Options) (Conn, error) {
	if o.Portable {
		return dialPortable(addr)
	}
	return dialOS(addr, o)
}

// Batch is a preallocated ring of packet buffers: the unit one syscall
// fills (ReadBatch) or drains (WriteBatch). All state is allocated by
// NewBatch; reusing one Batch per loop keeps the datapath allocation-free.
type Batch struct {
	slots    int
	slotSize int
	base     []byte
	lens     []int
	segs     []int // per-slot GSO/GRO segment stride; 0 = one plain datagram
	n        int   // packets currently held (write side) or last read count

	sys sysBatch // per-platform syscall scaffolding (empty on portable builds)
}

// NewBatch allocates a ring of n packet slots (clamped to [1, MaxBatch])
// of the default SlotSize.
func NewBatch(n int) *Batch { return NewBatchSized(n, SlotSize) }

// NewBatchSized allocates a ring of n packet slots (clamped to
// [1, MaxBatch]) of slotSize bytes each (clamped to
// [SlotSize, GROSlotSize]). Rings feeding a GRO-enabled socket need
// GROSlotSize slots so a fully coalesced super-datagram fits.
func NewBatchSized(n, slotSize int) *Batch {
	if n < 1 {
		n = 1
	}
	if n > MaxBatch {
		n = MaxBatch
	}
	if slotSize < SlotSize {
		slotSize = SlotSize
	}
	if slotSize > GROSlotSize {
		slotSize = GROSlotSize
	}
	b := &Batch{
		slots:    n,
		slotSize: slotSize,
		base:     make([]byte, n*slotSize),
		lens:     make([]int, n),
		segs:     make([]int, n),
	}
	b.sysInit()
	return b
}

// Cap reports the ring's slot count.
func (b *Batch) Cap() int { return b.slots }

// SlotCap reports the per-packet buffer size of this ring.
func (b *Batch) SlotCap() int { return b.slotSize }

// Len reports how many packets the batch currently holds.
func (b *Batch) Len() int { return b.n }

// Reset empties the batch (the backing buffers are retained).
func (b *Batch) Reset() { b.n = 0 }

// Packet views packet i's bytes in place. The view is valid until the
// slot is reused by the next ReadBatch/Append cycle.
func (b *Batch) Packet(i int) []byte {
	return b.base[i*b.slotSize : i*b.slotSize+b.lens[i]]
}

// SegSize reports the segment stride of packet i: s > 0 means Packet(i)
// is a GRO-coalesced run of s-byte wire datagrams (the last possibly
// shorter), 0 means one ordinary datagram.
func (b *Batch) SegSize(i int) int { return b.segs[i] }

// slot returns packet i's full backing slot.
func (b *Batch) slot(i int) []byte {
	return b.base[i*b.slotSize : (i+1)*b.slotSize]
}

// Append copies p into the next free slot; false means the ring is full
// or p exceeds the slot size.
func (b *Batch) Append(p []byte) bool {
	if b.n == b.slots || len(p) > b.slotSize {
		return false
	}
	copy(b.slot(b.n), p)
	b.lens[b.n] = len(p)
	b.segs[b.n] = 0
	b.n++
	return true
}

// AppendWith hands the next free slot (length 0, capacity SlotCap) to
// fn, which appends one encoded packet into it and returns the result —
// the zero-copy form of Append for encoders in the AppendFrame style.
// The packet is dropped (and AppendWith returns false) if fn outgrows
// the slot or the ring is full.
func (b *Batch) AppendWith(fn func(dst []byte) []byte) bool {
	if b.n == b.slots {
		return false
	}
	s := b.slot(b.n)
	p := fn(s[:0])
	if len(p) > b.slotSize || (len(p) > 0 && &p[0] != &s[0]) {
		return false // fn outgrew the slot and the encoder reallocated
	}
	b.lens[b.n] = len(p)
	b.segs[b.n] = 0
	b.n++
	return true
}

// AppendSegments is AppendWith for a packed run of equal-stride wire
// frames: fn appends the whole multi-frame payload into the slot and
// returns it together with the declared per-segment stride in bytes. On
// a Conn whose Segmented() is true, WriteBatch attaches a UDP_SEGMENT
// control message so the kernel splits the payload into ceil(len/seg)
// on-wire datagrams; elsewhere the payload would leave as one oversized
// datagram, so callers must consult Segmented() (or Segmentation())
// before packing. A stride ≤ 0 or ≥ the payload length marks the slot as
// one plain datagram; a payload spanning more than MaxSegments strides
// exceeds the kernel's UDP_SEGMENT cap and is rejected.
func (b *Batch) AppendSegments(fn func(dst []byte) (payload []byte, seg int)) bool {
	if b.n == b.slots {
		return false
	}
	s := b.slot(b.n)
	p, seg := fn(s[:0])
	if len(p) > b.slotSize || (len(p) > 0 && &p[0] != &s[0]) {
		return false // fn outgrew the slot and the encoder reallocated
	}
	if seg < 0 || seg >= len(p) {
		seg = 0
	}
	if seg > 0 && (len(p)+seg-1)/seg > MaxSegments {
		return false // kernel caps one GSO send at MaxSegments datagrams
	}
	b.lens[b.n] = len(p)
	b.segs[b.n] = seg
	b.n++
	return true
}

// Window is a bounded replay filter over datagram ids: it remembers the
// last cap ids observed and reports whether an id is fresh. One Window
// serves one ingest loop — flows hash to a stable socket under
// SO_REUSEPORT, so a retransmit meets the same window that saw the
// original. Not safe for concurrent use.
//
// The ids sit in a FIFO ring, indexed by an open-addressed, linearly
// probed table of 1 + ring index (0 is empty). The table is a power of two
// at least eight times the capacity: a probe costs its branches, and at a
// quarter load Observe took 35 ns against 22 at an eighth (Xeon). Eviction
// deletes by backward shift, so there are no tombstones and no rebuilds.
type Window struct {
	capacity int
	ring     []uint64
	pos      int
	full     bool
	table    []uint32
	shift    uint // 32 − log2(len(table)): a hash's top bits are its home slot
	maxProbe int  // longest miss probe so far, in occupied slots passed
	tab      [8][256]uint32
}

// NewWindow builds a window remembering the last capacity ids (minimum 1).
//
// Slots come from simple tabulation hashing over the id's eight bytes,
// with tables drawn here from math/rand/v2's runtime-seeded source. No
// sender sees them, so none can aim ids at one probe run, and under simple
// tabulation linear probing takes constant expected probes on every id set
// (Pătraşcu–Thorup). Multiply-shift does not: under about one multiplier
// in a hundred, consecutive ids average 4 to 20 probes per miss, not 0.15.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	b := uint(bits.Len(uint(8*capacity - 1)))
	w := &Window{
		capacity: capacity,
		ring:     make([]uint64, capacity),
		table:    make([]uint32, 1<<b),
		shift:    32 - b,
	}
	for i := range w.tab {
		for j := range w.tab[i] {
			w.tab[i][j] = rand.Uint32()
		}
	}
	return w
}

// Cap reports the window's capacity.
func (w *Window) Cap() int { return w.capacity }

// Observe records id and reports whether it was fresh: true admits the
// datagram, false means a duplicate of a recently seen id (a replay).
// The oldest remembered id is evicted once the window is full.
func (w *Window) Observe(id uint64) bool {
	mask := len(w.table) - 1
	home := w.home(id)
	i := home
	for s := w.table[i]; s != 0; s = w.table[i] {
		if w.ring[s-1] == id {
			return false
		}
		i = (i + 1) & mask
	}
	if d := (i - home) & mask; d > w.maxProbe {
		w.maxProbe = d
	}
	if w.full {
		// Deleting the oldest id empties exactly one slot. If that slot is
		// on id's probe path, it is now the first free one there.
		if h := w.remove(); (h-home)&mask < (i-home)&mask {
			i = h
		}
	}
	w.table[i] = uint32(w.pos + 1)
	w.ring[w.pos] = id
	w.pos++
	if w.pos == w.capacity {
		w.pos, w.full = 0, true
	}
	return true
}

// home is id's home slot: the top bits of its simple tabulation hash.
func (w *Window) home(id uint64) int {
	t := &w.tab
	h := t[0][byte(id)] ^ t[1][byte(id>>8)] ^ t[2][byte(id>>16)] ^ t[3][byte(id>>24)] ^
		t[4][byte(id>>32)] ^ t[5][byte(id>>40)] ^ t[6][byte(id>>48)] ^ t[7][byte(id>>56)]
	return int(h >> w.shift)
}

// remove deletes the table entry of the oldest id, ring[pos], by backward
// shift: every later entry of its probe run whose home allows it moves
// back into the hole. It returns the slot left empty.
func (w *Window) remove() int {
	mask := len(w.table) - 1
	hole := w.home(w.ring[w.pos])
	for w.table[hole] != uint32(w.pos+1) {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; w.table[j] != 0; j = (j + 1) & mask {
		if s := w.table[j]; (j-w.home(w.ring[s-1]))&mask >= (j-hole)&mask {
			w.table[hole], hole = s, j
		}
	}
	w.table[hole] = 0
	return hole
}
