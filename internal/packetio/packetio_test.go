package packetio

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func payload(i int) []byte { return []byte(fmt.Sprintf("pkt-%04d", i)) }

// roundTrip pushes count datagrams through a fresh listener/dialer pair
// built with the given options and returns every payload received.
func roundTrip(t *testing.T, o Options, count int) [][]byte {
	t.Helper()
	conns, err := Listen("127.0.0.1:0", o)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	var (
		mu  sync.Mutex
		got [][]byte
		wg  sync.WaitGroup
	)
	for _, c := range conns {
		wg.Add(1)
		go func(c Conn) {
			defer wg.Done()
			b := NewBatch(MaxBatch)
			for {
				n, err := c.ReadBatch(b)
				if err != nil {
					return
				}
				mu.Lock()
				for i := 0; i < n; i++ {
					got = append(got, append([]byte(nil), b.Packet(i)...))
				}
				done := len(got) >= count
				mu.Unlock()
				if done {
					return
				}
			}
		}(c)
	}

	d, err := Dial(conns[0].LocalAddr().String(), o)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer d.Close()
	out := NewBatch(16)
	for i := 0; i < count; {
		out.Reset()
		for i < count && out.Append(payload(i)) {
			i++
		}
		if _, err := d.WriteBatch(out); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= count {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d datagrams before timeout", n, count)
		}
		time.Sleep(time.Millisecond)
	}
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	return got
}

func checkPayloads(t *testing.T, got [][]byte, count int) {
	t.Helper()
	seen := make(map[string]bool, count)
	for _, p := range got {
		seen[string(p)] = true
	}
	for i := 0; i < count; i++ {
		if !seen[string(payload(i))] {
			t.Fatalf("payload %d never arrived", i)
		}
	}
}

func TestRoundTripDefault(t *testing.T) {
	const count = 200
	checkPayloads(t, roundTrip(t, Options{}, count), count)
}

func TestRoundTripPortable(t *testing.T) {
	const count = 50
	checkPayloads(t, roundTrip(t, Options{Portable: true}, count), count)
}

func TestMultiSocketListen(t *testing.T) {
	o := Options{Sockets: 4}
	conns, err := Listen("127.0.0.1:0", o)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if FastPath() {
		if len(conns) != 4 {
			t.Fatalf("fast path opened %d sockets, want 4", len(conns))
		}
		port := conns[0].LocalAddr().(*net.UDPAddr).Port
		for i, c := range conns {
			if p := c.LocalAddr().(*net.UDPAddr).Port; p != port {
				t.Fatalf("socket %d bound port %d, want shared port %d", i, p, port)
			}
		}
	} else if len(conns) != 1 {
		t.Fatalf("portable build opened %d sockets, want 1", len(conns))
	}
	// Traffic still lands regardless of which socket the kernel picks.
	const count = 100
	checkPayloads(t, roundTrip(t, o, count), count)
}

func TestBatchAppend(t *testing.T) {
	b := NewBatch(2)
	if !b.Append([]byte("a")) || !b.Append([]byte("bb")) {
		t.Fatal("appends into free slots failed")
	}
	if b.Append([]byte("c")) {
		t.Fatal("append into a full ring succeeded")
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if got := b.Packet(1); !bytes.Equal(got, []byte("bb")) {
		t.Fatalf("Packet(1) = %q", got)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not empty the batch")
	}
	if b.Append(make([]byte, SlotSize+1)) {
		t.Fatal("append of an oversized payload succeeded")
	}
}

func TestBatchAppendWith(t *testing.T) {
	b := NewBatch(1)
	ok := b.AppendWith(func(dst []byte) []byte {
		return append(dst, "encoded"...)
	})
	if !ok || !bytes.Equal(b.Packet(0), []byte("encoded")) {
		t.Fatalf("AppendWith ok=%v pkt=%q", ok, b.Packet(0))
	}
	if b.AppendWith(func(dst []byte) []byte { return dst }) {
		t.Fatal("AppendWith into a full ring succeeded")
	}
	b.Reset()
	if b.AppendWith(func(dst []byte) []byte { return make([]byte, SlotSize+1) }) {
		t.Fatal("AppendWith kept a packet that outgrew its slot")
	}
	if b.Len() != 0 {
		t.Fatal("rejected AppendWith advanced the ring")
	}
}

func TestNewBatchClamps(t *testing.T) {
	if got := NewBatch(0).Cap(); got != 1 {
		t.Fatalf("NewBatch(0).Cap() = %d, want 1", got)
	}
	if got := NewBatch(10 * MaxBatch).Cap(); got != MaxBatch {
		t.Fatalf("NewBatch(big).Cap() = %d, want %d", got, MaxBatch)
	}
}

func TestNewBatchSized(t *testing.T) {
	if got := NewBatch(3).SlotCap(); got != SlotSize {
		t.Fatalf("NewBatch slot cap = %d, want %d", got, SlotSize)
	}
	if got := NewBatchSized(1, 0).SlotCap(); got != SlotSize {
		t.Fatalf("slot cap 0 clamped to %d, want %d", got, SlotSize)
	}
	if got := NewBatchSized(1, 1<<20).SlotCap(); got != GROSlotSize {
		t.Fatalf("oversized slot cap clamped to %d, want %d", got, GROSlotSize)
	}

	// GRO-sized slots must not alias: fill every slot to capacity with a
	// distinct byte and check nothing bled across slot boundaries.
	b := NewBatchSized(4, GROSlotSize)
	for s := 0; s < 4; s++ {
		p := make([]byte, GROSlotSize)
		for i := range p {
			p[i] = byte('A' + s)
		}
		if !b.Append(p) {
			t.Fatalf("append of a full %d-byte slot %d failed", GROSlotSize, s)
		}
	}
	for s := 0; s < 4; s++ {
		p := b.Packet(s)
		if len(p) != GROSlotSize {
			t.Fatalf("slot %d holds %d bytes, want %d", s, len(p), GROSlotSize)
		}
		for i, c := range p {
			if c != byte('A'+s) {
				t.Fatalf("slot %d byte %d = %q: slots alias", s, i, c)
			}
		}
	}
}

func TestAppendSegments(t *testing.T) {
	b := NewBatch(2)
	ok := b.AppendSegments(func(dst []byte) ([]byte, int) {
		for i := 0; i < 4*32; i++ {
			dst = append(dst, byte(i))
		}
		return dst, 32
	})
	if !ok || b.Len() != 1 || b.SegSize(0) != 32 {
		t.Fatalf("packed slot: ok=%v len=%d seg=%d, want true/1/32", ok, b.Len(), b.SegSize(0))
	}
	// A stride covering the whole payload is just one datagram.
	ok = b.AppendSegments(func(dst []byte) ([]byte, int) {
		return append(dst, 1, 2, 3), 8
	})
	if !ok || b.SegSize(1) != 0 {
		t.Fatalf("whole-payload stride: ok=%v seg=%d, want true/0", ok, b.SegSize(1))
	}
	b.Reset()
	// More strides than the kernel will segment in one send is a refusal,
	// not a silent truncation.
	if b.AppendSegments(func(dst []byte) ([]byte, int) {
		return append(dst, make([]byte, (MaxSegments+1)*2)...), 2
	}) {
		t.Fatalf("AppendSegments accepted > MaxSegments strides")
	}
	// A reallocating encoder is rejected like in AppendWith.
	if b.AppendSegments(func(dst []byte) ([]byte, int) {
		return make([]byte, 64), 16
	}) {
		t.Fatal("AppendSegments kept a payload outside its slot")
	}
	if b.Len() != 0 {
		t.Fatal("rejected AppendSegments advanced the ring")
	}
	// Plain appends into a slot that previously held a packed run must
	// clear the stale stride.
	if !b.Append([]byte("plain")) || b.SegSize(0) != 0 {
		t.Fatalf("stale stride survived Append: seg=%d", b.SegSize(0))
	}
}

func TestDisableSegmentation(t *testing.T) {
	restore := DisableSegmentation()
	defer restore()
	if Segmentation() {
		t.Fatal("Segmentation() true while force-disabled")
	}
	conns, err := Listen("127.0.0.1:0", Options{GSO: true})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i, c := range conns {
		if c.Segmented() {
			t.Fatalf("socket %d segmented while segmentation disabled", i)
		}
	}
}

func TestWindowDedup(t *testing.T) {
	w := NewWindow(4)
	for i := uint64(0); i < 4; i++ {
		if !w.Observe(i) {
			t.Fatalf("fresh id %d rejected", i)
		}
	}
	for i := uint64(0); i < 4; i++ {
		if w.Observe(i) {
			t.Fatalf("recent duplicate %d admitted", i)
		}
	}
	// Push 4 fresh ids: the originals are evicted and would be admitted
	// again — the documented bounded-window escape, safe because a
	// readmitted id burns a value rather than minting a duplicate.
	for i := uint64(10); i < 14; i++ {
		if !w.Observe(i) {
			t.Fatalf("fresh id %d rejected after eviction", i)
		}
	}
	if !w.Observe(0) {
		t.Fatal("evicted id should read as fresh once outside the window")
	}
	if w.Observe(13) {
		t.Fatal("still-windowed id admitted")
	}
}

// windowModel is the reference the property tests check Window against:
// a FIFO of admitted ids (duplicates do not refresh position) plus the
// membership set it implies.
type windowModel struct {
	capacity int
	fifo     []uint64
	in       map[uint64]bool
}

func newWindowModel(capacity int) *windowModel {
	return &windowModel{capacity: capacity, in: make(map[uint64]bool)}
}

func (m *windowModel) observe(id uint64) bool {
	if m.in[id] {
		return false
	}
	if len(m.fifo) == m.capacity {
		delete(m.in, m.fifo[0])
		m.fifo = m.fifo[1:]
	}
	m.fifo = append(m.fifo, id)
	m.in[id] = true
	return true
}

// xorshift is the seeded deterministic generator for the property tests.
func xorshift(s *uint64) uint64 {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return *s
}

// TestWindowEvictionOrderProperty drives Window with dense random id
// streams across several capacities and checks every verdict against the
// FIFO model — in particular that eviction follows admission order and
// that rejected duplicates do not refresh an id's position.
func TestWindowEvictionOrderProperty(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 64, 257} {
		for seed := uint64(1); seed <= 5; seed++ {
			s := seed*0x9e3779b97f4a7c15 + uint64(capacity)
			w := NewWindow(capacity)
			m := newWindowModel(capacity)
			for op := 0; op < 4000; op++ {
				// Draw from ~3 windows' worth of ids so duplicates, hits
				// on evicted ids, and fresh ids all occur routinely.
				id := xorshift(&s) % uint64(3*capacity+1)
				want := m.observe(id)
				if got := w.Observe(id); got != want {
					t.Fatalf("cap=%d seed=%d op=%d id=%d: Observe=%v, model=%v",
						capacity, seed, op, id, got, want)
				}
			}
		}
	}
}

// TestWindowIDWraparoundAtBoundary pins the window's behaviour for ids
// straddling the uint64 wraparound exactly as the window fills and
// starts evicting: numeric order must be irrelevant, only arrival order.
func TestWindowIDWraparoundAtBoundary(t *testing.T) {
	const capacity = 4
	w := NewWindow(capacity)
	ids := []uint64{^uint64(0) - 1, ^uint64(0), 0, 1}
	for _, id := range ids {
		if !w.Observe(id) {
			t.Fatalf("fresh id %d rejected", id)
		}
	}
	for _, id := range ids {
		if w.Observe(id) {
			t.Fatalf("windowed duplicate %d admitted", id)
		}
	}
	// One more fresh id evicts the oldest (2^64-2), wrapping the ring
	// position; the evicted id reads as fresh again while the rest of the
	// window still rejects.
	if !w.Observe(42) {
		t.Fatal("fresh id 42 rejected at the boundary")
	}
	if w.Observe(0) || w.Observe(1) || w.Observe(^uint64(0)) {
		t.Fatal("still-windowed id admitted after boundary eviction")
	}
	if !w.Observe(^uint64(0) - 1) {
		t.Fatal("evicted id 2^64-2 should read as fresh")
	}
	// That readmission in turn evicted 2^64-1 — admission order, not
	// numeric order.
	if !w.Observe(^uint64(0)) {
		t.Fatal("2^64-1 should have been the next eviction")
	}
	if w.Observe(42) {
		t.Fatal("mid-window id evicted out of order")
	}
}

// TestWindowDuplicateInsideStrideProperty replays the GSO shape: ids
// arrive in strides of up to MaxSegments, some duplicated *within* one
// stride. Every segment's verdict must match the model — a duplicate in
// the same super-datagram is rejected exactly like a retransmit.
func TestWindowDuplicateInsideStrideProperty(t *testing.T) {
	s := uint64(0xdeadbeefcafe)
	const capacity = 64
	w := NewWindow(capacity)
	m := newWindowModel(capacity)
	for stride := 0; stride < 300; stride++ {
		n := 1 + int(xorshift(&s)%MaxSegments)
		ids := make([]uint64, n)
		for i := range ids {
			if i > 0 && xorshift(&s)%4 == 0 {
				// ~25%: duplicate an earlier id from this same stride.
				ids[i] = ids[int(xorshift(&s)%uint64(i))]
			} else {
				ids[i] = xorshift(&s)
			}
		}
		for i, id := range ids {
			want := m.observe(id)
			if got := w.Observe(id); got != want {
				t.Fatalf("stride=%d seg=%d id=%d: Observe=%v, model=%v",
					stride, i, id, got, want)
			}
		}
	}
}

// TestWindowHostileIDs drives the server's default window through id
// streams that defeat a weak hash: ids sharing their low 13, 32 or 51
// bits, the benchmark's dense band, and seeded random ids. Every verdict
// must match the FIFO model and no Observe may walk past 32 buckets
// beyond its home one.
func TestWindowHostileIDs(t *testing.T) {
	const capacity, n = 4096, 1 << 20
	streams := []struct {
		name string
		id   func(j uint64) uint64
	}{
		{"j<<13", func(j uint64) uint64 { return j << 13 }},
		{"j<<32", func(j uint64) uint64 { return j << 32 }},
		{"j<<51", func(j uint64) uint64 { return j << 51 }},
		{"1<<41|j", func(j uint64) uint64 { return 1<<41 | j }},
		{"random", func() func(uint64) uint64 {
			s := uint64(0x5eed)
			return func(uint64) uint64 { return xorshift(&s) }
		}()},
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			w := NewWindow(capacity)
			m := newWindowModel(capacity)
			for j := uint64(0); j < n; j++ {
				id := st.id(j)
				if got, want := w.Observe(id), m.observe(id); got != want {
					t.Fatalf("j=%d id=%#x: Observe=%v, model=%v", j, id, got, want)
				}
			}
			if w.maxProbe > 32 {
				t.Fatalf("longest walk %d buckets past home, want ≤ 32", w.maxProbe)
			}
			t.Logf("longest walk %d buckets past home", w.maxProbe)
		})
	}
}

// TestWindowCollidingIDs sends every id to one home bucket, the first or
// the last of the table, by zeroing or saturating the hash tables. Ids
// then overflow into long chains, walk past the end of the table and
// wrap, and expire inside buckets other lookups must still walk through;
// every verdict must still match the FIFO model.
func TestWindowCollidingIDs(t *testing.T) {
	for _, last := range []bool{false, true} {
		for _, capacity := range []int{1, 2, 3, 7, 64} {
			w := NewWindow(capacity)
			for i := range w.tab {
				for j := range w.tab[i] {
					w.tab[i][j] = 0
					if last && i == 0 {
						w.tab[i][j] = ^uint32(0)
					}
				}
			}
			m := newWindowModel(capacity)
			s := uint64(capacity)*0x9e3779b97f4a7c15 + 1
			for op := 0; op < 20000; op++ {
				id := xorshift(&s) % uint64(3*capacity+1)
				if got, want := w.Observe(id), m.observe(id); got != want {
					t.Fatalf("last=%v cap=%d op=%d id=%d: Observe=%v, model=%v",
						last, capacity, op, id, got, want)
				}
			}
		}
	}
}

func TestWindowObserveAllocs(t *testing.T) {
	w := NewWindow(4096)
	var id uint64
	if a := testing.AllocsPerRun(10000, func() { id++; w.Observe(id) }); a != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", a)
	}
}

var observed bool

// BenchmarkWindowObserve admits fresh ids into a full default-size
// window, the ingest steady state: every call hashes once, reads its home
// bucket and overwrites the bucket's oldest slot, or walks on if the
// bucket is full. CI gates it at 0 allocs/op.
func BenchmarkWindowObserve(b *testing.B) {
	w := NewWindow(4096)
	id := uint64(1) << 41
	for i := 0; i < 4096; i++ {
		id++
		w.Observe(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id++
		observed = w.Observe(id)
	}
}

// BenchmarkWindowObserveReplay replays ids the full default-size window
// still holds, the cost of a retransmit flood: a lookup that matches and
// writes nothing. CI gates it at 0 allocs/op.
func BenchmarkWindowObserveReplay(b *testing.B) {
	w := NewWindow(4096)
	id := uint64(1) << 41
	for i := 0; i < 4096; i++ {
		w.Observe(id + uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observed = w.Observe(id + uint64(i&4095))
	}
}

func TestWindowCapacityOne(t *testing.T) {
	w := NewWindow(0) // clamps to 1
	if w.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", w.Cap())
	}
	if !w.Observe(7) || w.Observe(7) {
		t.Fatal("capacity-1 window broke fresh/dup sequencing")
	}
	if !w.Observe(8) || !w.Observe(7) {
		t.Fatal("capacity-1 window failed to evict")
	}
}
