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
// Observe runs once per admitted frame, so it uses no Go map but a table
// of cache-line buckets hashed with per-Window random tables (a sender
// cannot aim ids at one probe run), and it never deletes: an id expires
// once cap more ids have been admitted after it.
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
// last cap ids admitted and reports whether an id is fresh. One Window
// serves one ingest loop — flows hash to a stable socket under
// SO_REUSEPORT, so a retransmit meets the same window that saw the
// original. Not safe for concurrent use.
//
// Nothing is ever deleted. Each admission is numbered, and an id stays
// live while fewer than cap admissions have followed its own; an expired
// slot reads as free. The ids sit in a linearly probed table of buckets,
// one cache line each, at least one bucket per id of capacity, so a fresh
// id costs one hash and, unless its home bucket is full, one line read
// and written.
type Window struct {
	capacity uint64
	now      uint64 // capacity + admissions so far: the newest id's stamp
	table    []bucket
	shift    uint // 32 − log2(len(table)): a hash's top bits are its home bucket
	maxProbe int  // most buckets an Observe has passed beyond the home one
	tab      [8][256]uint32
}

// bucket is one 64-byte line of the table: three ids with the stamps
// that keep them live, a cursor, and over, the newest stamp of an id
// admitted past this bucket because it was full. The slots are written in
// turn, so the cursor's slot holds the bucket's oldest id: if that id has
// expired the bucket has room, and otherwise it is full. While over is
// live, a lookup reading this bucket must read the next one too; once it
// has expired, nothing live lies beyond on this bucket's account. The
// counter starts at the capacity, so a zero stamp reads as expired and a
// zeroed bucket is empty.
type bucket struct {
	id    [3]uint64
	stamp [3]uint64
	over  uint64
	next  uint64 // the slot written least recently
}

// NewWindow builds a window remembering the last capacity ids (minimum 1).
//
// Home buckets come from simple tabulation hashing over the id's eight
// bytes, with tables drawn here from math/rand/v2's runtime-seeded
// source. No sender sees them, so none can aim ids at one probe run, and
// under simple tabulation linear probing takes constant expected probes
// on every id set (Pătraşcu–Thorup). Multiply-shift does not: under
// about one multiplier in a hundred, consecutive ids average 4 to 20
// probes per miss, not 0.15.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	b := uint(bits.Len(uint(capacity - 1)))
	w := &Window{
		capacity: uint64(capacity),
		now:      uint64(capacity),
		table:    make([]bucket, 1<<b),
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
func (w *Window) Cap() int { return int(w.capacity) }

// Observe records id and reports whether it was fresh: true admits the
// datagram, false means a duplicate of one of the last cap admitted ids
// (a replay). A replay does not refresh the id it matched.
//
// The lookup reads id's home bucket and, while the bucket read last has a
// live over stamp, the next one; on the way it notes the first bucket
// with room. A fresh id goes there, or, if every bucket read was full,
// into the first bucket with room further on, and every bucket it passed
// gets its stamp as over. The walk never laps the table: it passes a
// bucket only if the bucket was full within the last cap admissions, and
// the table has at least cap buckets, so a lap would take three times as
// many ids as fit in two spans of cap admissions.
func (w *Window) Observe(id uint64) bool {
	t := &w.tab
	h := t[0][byte(id)] ^ t[1][byte(id>>8)] ^ t[2][byte(id>>16)] ^ t[3][byte(id>>24)] ^
		t[4][byte(id>>32)] ^ t[5][byte(id>>40)] ^ t[6][byte(id>>48)] ^ t[7][byte(id>>56)]
	home := int(h >> w.shift)
	now, span := w.now, w.capacity
	mask := len(w.table) - 1
	free := -1
	i := home
	for {
		b := &w.table[i]
		if b.id[0] == id && now-b.stamp[0] < span ||
			b.id[1] == id && now-b.stamp[1] < span ||
			b.id[2] == id && now-b.stamp[2] < span {
			return false
		}
		if free < 0 && now-b.stamp[b.next] >= span {
			free = i
		}
		if now-b.over >= span {
			break
		}
		i = (i + 1) & mask
	}
	now++
	for free < 0 {
		i = (i + 1) & mask
		if b := &w.table[i]; now-b.stamp[b.next] >= span {
			free = i
		}
	}
	for k := home; k != free; k = (k + 1) & mask {
		w.table[k].over = now
	}
	if d := (i - home) & mask; d > w.maxProbe {
		w.maxProbe = d
	}
	b := &w.table[free]
	j := b.next
	b.id[j], b.stamp[j], b.next = id, now, (j+1)%3
	w.now = now
	return true
}
