package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	stdruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/wire"
)

// The explorer's scope: blocks of mintB ids, and BFS to at most
// mintDepth events (it reaches its fixed point sooner).
const (
	mintB     = 4
	mintDepth = 40
)

// mintKey is what the explorer hashes: one node's minter state, the
// leader's bump frontier, the prefetches in flight and the callers parked
// on one, and the highest id the node has handed out. Two schedules that
// reach one key behave alike from there on.
type mintKey struct {
	st      mintState
	front   int64
	fetches [8]mintFetch // oldest first
	nf      int
	parked  [2]mintParked
	np      int
	top     int64 // -1 before the first id
}

// canon is k with every id shifted down by the lowest one k names, empty
// blocks zeroed and the burned count dropped (mintWorld's books keep it):
// schedules that differ only in how far they have minted meet in one
// key, so the search reaches a fixed point.
func (k mintKey) canon() mintKey {
	base := k.front
	if k.top >= 0 {
		base = min(base, k.top)
	}
	blocks := []*block{&k.st.cur, &k.st.nxt}
	for i := range k.fetches {
		blocks = append(blocks, &k.fetches[i].b)
	}
	for _, b := range blocks {
		if b.remaining() > 0 {
			base = min(base, b.next)
		}
	}
	for _, b := range blocks {
		if b.remaining() > 0 {
			b.next, b.end = b.next-base, b.end-base
		} else {
			*b = block{}
		}
	}
	k.front -= base
	if k.top >= 0 {
		k.top -= base
	}
	k.st.burned = 0
	return k
}

// mintFetch is one prefetch in flight: sent, then granted by the
// leader, then its reply lands or fails.
type mintFetch struct {
	granted bool
	b       block
}

// mintParked is a caller waiting, with need ids still to take, for the
// prefetch at index on to land (-1 once it has).
type mintParked struct {
	need int64
	on   int
}

// mintWorld adds the books the invariants read and no step does.
type mintWorld struct {
	mintKey
	handed         [4]uint64 // bit set of ids handed out
	installed, out int64     // ids granted() took in, handed out
}

func newMintWorld() mintWorld {
	return mintWorld{mintKey: mintKey{st: mintState{size: mintB}, top: -1}}
}

// events lists every event the world can take next.
func (w *mintWorld) events() []string {
	var evs []string
	if w.np < len(w.parked) {
		for _, k := range []int{1, mintB - 1, mintB, mintB + 1} {
			evs = append(evs, fmt.Sprintf("take(%d)", k))
		}
	}
	for i := 0; i < w.np; i++ {
		if w.parked[i].on < 0 {
			evs = append(evs, fmt.Sprintf("resume(%d)", i))
		}
	}
	for i := 0; i < w.nf; i++ {
		if w.fetches[i].granted {
			evs = append(evs, fmt.Sprintf("land(%d)", i))
		} else {
			evs = append(evs, fmt.Sprintf("grant(%d)", i))
		}
		evs = append(evs, fmt.Sprintf("fail(%d)", i))
	}
	if !w.st.closed {
		evs = append(evs, "close")
	}
	return evs
}

// step applies one event and checks every invariant in the state it
// reaches.
func (w *mintWorld) step(ev string) error {
	var i int
	switch {
	case ev == "close" && !w.st.closed:
		w.st.close()
	case scan(ev, "take(%d)", &i) && w.np < len(w.parked):
		if err := w.call(int64(i)); err != nil {
			return err
		}
	case scan(ev, "resume(%d)", &i) && i < w.np && w.parked[i].on < 0:
		need := w.parked[i].need
		copy(w.parked[i:], w.parked[i+1:w.np])
		w.np--
		if err := w.call(need); err != nil {
			return err
		}
	case scan(ev, "grant(%d)", &i) && i < w.nf && !w.fetches[i].granted:
		w.fetches[i] = mintFetch{granted: true, b: w.grant()}
	case scan(ev, "land(%d)", &i) && i < w.nf && w.fetches[i].granted:
		b := w.fetches[i].b
		w.settle(i)
		w.install(b)
	case scan(ev, "fail(%d)", &i) && i < w.nf:
		w.settle(i)
		w.st.fetchFailed()
	default:
		return fmt.Errorf("event %s is not enabled", ev)
	}
	held := w.st.cur.remaining() + w.st.nxt.remaining()
	if held > 2*mintB {
		return fmt.Errorf("the node holds %d unminted ids, over 2·B = %d", held, 2*mintB)
	}
	if w.installed != w.out+held+w.st.burned {
		return fmt.Errorf("granted %d ids, but handed out %d, held %d and burned %d",
			w.installed, w.out, held, w.st.burned)
	}
	return nil
}

func scan(ev, format string, i *int) bool {
	n, err := fmt.Sscanf(ev, format, i)
	return n == 1 && err == nil
}

// call runs one Mint of need ids the way the Minter does, up to
// its return or its wait for a prefetch.
func (w *mintWorld) call(need int64) error {
	var out []runtime.Range
	for {
		var act mintAction
		out, need, act = w.st.take(out[:0], need)
		for _, r := range out {
			for v := r.First; v < r.First+r.Count; v++ {
				if err := w.hand(v); err != nil {
					return err
				}
			}
		}
		switch act {
		case mintPrefetch:
			if w.nf == len(w.fetches) {
				return fmt.Errorf("more than %d prefetches in flight: past the explorer's scope", w.nf)
			}
			w.fetches[w.nf] = mintFetch{}
			w.nf++
		case mintWait:
			w.parked[w.np] = mintParked{need: need, on: w.nf - 1}
			w.np++
		case mintRefill:
			if w.st.closed {
				return nil // the call fails; the ids it carved are a gap
			}
			w.install(w.grant())
			continue
		}
		return nil
	}
}

// grant carves the next block from the leader's frontier.
func (w *mintWorld) grant() block {
	b := block{next: w.front, end: w.front + mintB}
	w.front += mintB
	return b
}

func (w *mintWorld) install(b block) {
	w.installed += b.remaining()
	w.st.granted(b)
}

// settle takes fetch i out of flight and wakes the callers parked on it.
func (w *mintWorld) settle(i int) {
	copy(w.fetches[i:], w.fetches[i+1:w.nf])
	w.nf--
	w.fetches[w.nf] = mintFetch{}
	for j := 0; j < w.np; j++ {
		switch p := &w.parked[j]; {
		case p.on == i:
			p.on = -1
		case p.on > i:
			p.on--
		}
	}
}

// hand records id v as handed out.
func (w *mintWorld) hand(v int64) error {
	if v < 0 || v >= int64(64*len(w.handed)) {
		return fmt.Errorf("id %d is past the explorer's scope", v)
	}
	if w.handed[v/64]&(1<<(v%64)) != 0 {
		return fmt.Errorf("id %d handed out twice", v)
	}
	if v <= w.top {
		return fmt.Errorf("id %d handed out after %d: the node's values went backwards", v, w.top)
	}
	w.handed[v/64] |= 1 << (v % 64)
	w.top = v
	w.out++
	return nil
}

// replayMint runs a schedule from the initial state.
func replayMint(sched []string) error {
	w := newMintWorld()
	for i, ev := range sched {
		if err := w.step(ev); err != nil {
			return fmt.Errorf("step %d (%s): %v", i+1, ev, err)
		}
	}
	return nil
}

// TestMintStateExplore tries every interleaving of takes, the leader's
// grant of a prefetch, that grant's reply landing or failing, and close,
// breadth first to mintDepth events, visiting each distinct state once.
// In every state: no id is handed out twice, each id handed out is above
// every earlier one, every granted id is handed out, held or burned, and
// the node holds at most 2·B ids. A failure prints the schedule;
// TestMintSchedules replays it as a row.
func TestMintStateExplore(t *testing.T) {
	type node struct {
		w      mintWorld
		parent int
		ev     string
	}
	nodes := []node{{w: newMintWorld(), parent: -1}}
	seen := map[mintKey]bool{nodes[0].w.canon(): true}
	schedule := func(i int) []string {
		var s []string
		for ; nodes[i].parent >= 0; i = nodes[i].parent {
			s = append([]string{nodes[i].ev}, s...)
		}
		return s
	}
	depth, lo := 0, 0
	for ; depth < mintDepth && lo < len(nodes); depth++ {
		hi := len(nodes)
		for i := lo; i < hi; i++ {
			for _, ev := range nodes[i].w.events() {
				w := nodes[i].w
				if err := w.step(ev); err != nil {
					t.Fatalf("%v\nschedule: %#v", err, append(schedule(i), ev))
				}
				if k := w.canon(); !seen[k] {
					seen[k] = true
					nodes = append(nodes, node{w: w, parent: i, ev: ev})
				}
			}
		}
		lo = hi
	}
	if lo < len(nodes) {
		t.Logf("stopped at depth %d before a fixed point: %d distinct states", depth, len(seen))
	} else {
		t.Logf("fixed point at depth %d: %d distinct states", depth, len(seen))
	}
}

// TestMintSchedules replays schedules against the state, one row each:
// the explorer prints a failing one in this form.
func TestMintSchedules(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched []string
	}{
		// The explorer's counterexample once take refills beside the
		// in-flight prefetch: 8..11 are minted, then the prefetch's lower
		// 4..7 (the bug TestMinterWaitsForPrefetch pins on the Minter).
		{"wait for the granted prefetch", []string{"take(3)", "grant(0)", "take(3)", "land(0)", "take(3)"}},
		{"resume after the landing", []string{"take(4)", "grant(0)", "take(1)", "land(0)", "resume(0)", "take(5)"}},
		{"burn a prefetch landing after close", []string{"take(3)", "grant(0)", "close", "land(0)", "take(1)"}},
	} {
		if err := replayMint(tc.sched); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestMinterFollowsMintState drives the real Minter, its lock and its
// prefetch goroutine, with a scripted request beside a shadow mintState
// stepped through the same events: after every call the ranges handed
// out and Owned() must equal the shadow's, and finally so must the ids
// close() burns. The script
// grants from a frontier and, per the seed, holds each prefetch's reply
// until the test lands or fails it, and fails some refills.
func TestMinterFollowsMintState(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		minterFollows(t, seed)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

func minterFollows(t *testing.T, seed int64) {
	const size = 8
	rng := rand.New(rand.NewSource(seed))
	type call struct{ prefetch, fail bool }
	var (
		plan    = make(chan call, 4)  // the requests the shadow makes, in order
		held    = make(chan struct{}) // a prefetch has been granted and awaits its verdict
		verdict = make(chan bool)     // true: the held reply lands; false: it fails
		front   atomic.Int64          // the scripted leader's frontier
		errLost = errors.New("reply lost")
	)
	m := newMinter(4, size, NewStats(), func(k int64) (wire.Range, error) {
		var c call
		select {
		case c = <-plan:
		default:
			t.Errorf("the minter made a request its state did not ask for")
			return wire.Range{}, errLost
		}
		r := wire.Range{First: front.Add(k) - k, Stride: 1, Count: k}
		if c.prefetch {
			held <- struct{}{}
			c.fail = !<-verdict
		}
		if c.fail {
			return wire.Range{}, errLost
		}
		return r, nil
	})
	await := func(ch <-chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("seed %d: no %s", seed, what)
		}
	}

	sh := mintState{size: size}
	var shFront int64
	var pending block // the shadow's prefetch in flight
	grant := func() block {
		b := block{next: shFront, end: shFront + size}
		shFront += size
		return b
	}
	// resolve answers the held prefetch reply, on the minter and the shadow.
	resolve := func(land bool) {
		await(held, "prefetch request")
		verdict <- land
		if land {
			sh.granted(pending)
		} else {
			sh.fetchFailed()
		}
	}
	compareOwned := func(when string) {
		if got, want := m.Owned(), sh.owned(); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d, %s: Owned() = %v, shadow holds %v", seed, when, got, want)
		}
	}

	for step := 0; step < 40 && !t.Failed(); step++ {
		if sh.prefetching && rng.Intn(3) == 0 {
			resolve(rng.Intn(4) != 0)
			m.mu.Lock()
			landed := m.landed
			m.mu.Unlock()
			await(landed, "landing")
			compareOwned(fmt.Sprintf("step %d, after the prefetch", step))
			continue
		}
		k := 1 + rng.Intn(size+1)
		// Step the shadow through the call first: it queues the requests
		// the Minter must make, and says whether the call waits.
		var want []runtime.Range
		wantErr, waits, land := false, false, false
	shadow:
		for need := int64(k); ; {
			var act mintAction
			want, need, act = sh.take(want, need)
			switch act {
			case mintPrefetch:
				plan <- call{prefetch: true}
				pending = grant()
			case mintWait:
				waits, land = true, rng.Intn(4) != 0
				if land {
					sh.granted(pending)
				} else {
					sh.fetchFailed()
				}
				continue
			case mintRefill:
				fail := rng.Intn(8) == 0
				plan <- call{fail: fail}
				b := grant()
				if fail {
					wantErr = true
					break shadow
				}
				sh.granted(b)
				continue
			}
			break
		}
		type result struct {
			rs  []runtime.Range
			err error
		}
		done := make(chan result, 1)
		go func() {
			rs, err := m.Mint(nil, 0, k)
			done <- result{rs, err}
		}()
		if waits {
			await(held, "prefetch request")
			verdict <- land
		}
		var res result
		select {
		case res = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("seed %d, step %d: Mint(%d) did not return", seed, step, k)
		}
		if (res.err != nil) != wantErr {
			t.Errorf("seed %d, step %d: Mint(%d) error %v, shadow expects an error: %v", seed, step, k, res.err, wantErr)
		} else if !wantErr && !reflect.DeepEqual(res.rs, want) {
			t.Errorf("seed %d, step %d: Mint(%d) = %v, shadow hands out %v", seed, step, k, res.rs, want)
		}
		compareOwned(fmt.Sprintf("step %d, after Mint(%d)", step, k))
	}

	// Close, with the prefetch (if one is in flight) landing after it: the
	// held ids and its block are burned on both.
	inFlight := sh.prefetching
	sh.close()
	closed := make(chan struct{})
	go func() { m.close(); close(closed) }()
	if inFlight {
		for done := false; !done; stdruntime.Gosched() {
			m.mu.Lock()
			done = m.st.closed
			m.mu.Unlock()
		}
		resolve(true)
	}
	<-closed
	m.mu.Lock()
	burned := m.st.burned
	m.mu.Unlock()
	if burned != sh.burned {
		t.Errorf("seed %d: burned %d ids, shadow %d", seed, burned, sh.burned)
	}
	if _, err := m.Mint(nil, 0, 1); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("seed %d: Mint after close: %v, want the closed error", seed, err)
	}
	compareOwned("after close")
}
