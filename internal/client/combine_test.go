package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/wire"
)

// The combiner's shell as the tests drive it by hand.

// openMembers reports how many callers the open group of b holds (0: no
// group is open).
func openMembers(b *batcher) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.st.open == 0 {
		return 0
	}
	return b.st.n
}

// holdTurn puts a stand-in frame in flight on b, so openers wait for the
// turn and callers pile into their groups, until release answers it.
func holdTurn(b *batcher) (release func()) {
	g := &batchGroup{id: ^uint64(0), done: make(chan struct{})}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.st.take(g.id) {
		panic("holdTurn: a frame is already out")
	}
	b.out = g
	return func() { b.finish(g) }
}

// takeAndSeal is send's part up to the frame: g takes the free turn and
// is sealed.
func takeAndSeal(b *batcher, g *batchGroup) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.st.take(g.id) {
		panic("takeAndSeal: a frame is already out")
	}
	b.out = g
	g.n = int32(b.st.seal(g.id))
	b.track(g)
}

// The explorer: combineState in every interleaving of xCallers callers
// with xOps increments each, in either mode, a context that may end at
// any point of each, and a frame answered or failed.
const (
	xCallers = 3
	xOps     = 2
	xGroups  = 8 // live groups the world tracks, both modes together
	xMembers = xCallers * xOps
)

// A caller's phase within its current increment.
const (
	pIdle    uint8 = iota // between increments
	pBid                  // opened a group, about to take the turn
	pParked               // opener waiting for the frame out to be answered
	pHold                 // opener holding the turn: it seals and sends
	pMember               // joined a group, waiting for its outcome
	pRegroup              // its group was dropped unsent; about to join again
)

// A group's phase.
const (
	gOpen    uint8 = iota // not sealed: taking joiners, its opener bidding or holding the turn
	gDropped              // dropped unsent: its members regroup
	gOut                  // sealed, its frame in flight
	gDone                 // answered (or failed): its members have their outcomes
)

// An op's outcome.
const (
	oNone uint8 = iota
	oValue
	oCancelled
	oFailed
)

type xCaller struct {
	phase, mode, ops uint8  // ops: increments finished
	g, on            uint64 // its group; the out group a parked opener waits on
	prev             uint64 // the group its last value came from (0: none)
	prevMode         uint8
	ctx              bool // the current increment's context has ended
}

type xGroup struct {
	live      bool
	mode      uint8
	id        uint64
	phase     uint8
	n, joined uint8
	ops       uint8  // bit caller·xOps+op: the ops that joined it
	used      uint16 // the arrival indices taken
}

// combineWorld is one client's two batchers' values and the books the
// invariants read.
type combineWorld struct {
	st      [2]combineState
	callers [xCallers]xCaller
	groups  [xGroups]xGroup
	sent    [xMembers]uint8 // frames that carried each op
	outcome [xMembers]uint8
}

func newCombineWorld(limit int) combineWorld {
	var w combineWorld
	for m := range w.st {
		w.st[m].limit = limit
	}
	return w
}

// xEvent is one step: kind names it; c is a caller, m a mode.
type xEvent struct{ kind, c, m uint8 }

const (
	evInc uint8 = iota
	evTake
	evWake
	evCancel
	evRejoin
	evSeal
	evAnswer
	evFail
	evEnd // marks a schedule that ends in a settled state
)

func (e xEvent) String() string {
	mode := [2]string{"sc", "lin"}[e.m]
	switch e.kind {
	case evInc:
		return fmt.Sprintf("inc(%d,%s)", e.c, mode)
	case evSeal, evAnswer, evFail:
		return fmt.Sprintf("%s(%s)", [...]string{evSeal: "seal", evAnswer: "answer", evFail: "fail"}[e.kind], mode)
	}
	return fmt.Sprintf("%s(%d)", [...]string{evTake: "take", evWake: "wake", evCancel: "cancel", evRejoin: "rejoin"}[e.kind], e.c)
}

func (w *combineWorld) group(m uint8, id uint64) *xGroup {
	for i := range w.groups {
		if g := &w.groups[i]; g.live && g.mode == m && g.id == id {
			return g
		}
	}
	return nil
}

// events lists every event the world can take next.
func (w *combineWorld) events() []xEvent {
	var evs []xEvent
	for i := range w.callers {
		c, ci := &w.callers[i], uint8(i)
		switch c.phase {
		case pIdle:
			if c.ops < xOps {
				evs = append(evs, xEvent{evInc, ci, 0}, xEvent{evInc, ci, 1})
			}
		case pBid:
			evs = append(evs, xEvent{kind: evTake, c: ci})
		case pParked:
			if g := w.group(c.mode, c.on); g == nil || g.phase == gDone {
				evs = append(evs, xEvent{kind: evWake, c: ci})
			}
		case pRegroup:
			evs = append(evs, xEvent{kind: evRejoin, c: ci})
		}
		if c.phase != pIdle && !c.ctx {
			evs = append(evs, xEvent{kind: evCancel, c: ci})
		}
	}
	for m := uint8(0); m < 2; m++ {
		g := w.group(m, w.st[m].out)
		switch {
		case g == nil:
		case g.phase == gOut:
			evs = append(evs, xEvent{kind: evAnswer, m: m}, xEvent{kind: evFail, m: m})
		case g.phase != gDone:
			evs = append(evs, xEvent{kind: evSeal, m: m})
		}
	}
	return evs
}

// step applies one event and checks every invariant in the state it
// reaches.
func (w *combineWorld) step(e xEvent) error {
	c := &w.callers[e.c]
	switch e.kind {
	case evInc:
		c.mode, c.ctx = e.m, false
		return w.join(e.c)
	case evRejoin:
		return w.join(e.c)
	case evTake, evWake:
		return w.bid(e.c)
	case evCancel:
		c.ctx = true
		switch c.phase {
		case pMember, pRegroup:
			return w.finish(e.c, oCancelled)
		case pParked:
			return w.drop(e.c)
		}
	case evSeal:
		return w.seal(e.m)
	case evAnswer, evFail:
		return w.answer(e.m, e.kind == evAnswer)
	}
	return nil
}

// join runs incBatched's join for caller ci.
func (w *combineWorld) join(ci uint8) error {
	c := &w.callers[ci]
	id, idx := w.st[c.mode].join()
	g := w.group(c.mode, id)
	if idx == 0 {
		if g != nil {
			return fmt.Errorf("caller %d opened group %d, which is already live", ci, id)
		}
		for i := range w.groups {
			if !w.groups[i].live {
				g = &w.groups[i]
				*g = xGroup{live: true, mode: c.mode, id: id}
				break
			}
		}
		if g == nil {
			return fmt.Errorf("more than %d live groups: past the explorer's scope", xGroups)
		}
	}
	op := int(ci)*xOps + int(c.ops)
	switch {
	case g == nil:
		return fmt.Errorf("caller %d joined group %d, which has gone", ci, id)
	case g.phase != gOpen:
		return fmt.Errorf("caller %d joined group %d after its seal: a member invoked after its frame left", ci, id)
	case idx >= 16:
		return fmt.Errorf("index %d: past the explorer's scope", idx)
	case g.used&(1<<idx) != 0:
		return fmt.Errorf("callers share index %d of group %d", idx, id)
	}
	g.used |= 1 << idx
	g.ops |= 1 << op
	g.joined++
	c.g = id
	c.phase = pMember
	if idx == 0 {
		c.phase = pBid
	}
	return nil
}

// bid runs send's take for opener ci; refused, it parks on the frame out,
// or drops its group if its context has ended.
func (w *combineWorld) bid(ci uint8) error {
	c := &w.callers[ci]
	st := &w.st[c.mode]
	if st.take(c.g) {
		c.phase = pHold
		for i := range w.groups {
			if g := &w.groups[i]; g.live && g.mode == c.mode && g.phase == gOut {
				return fmt.Errorf("group %d takes the turn while group %d's frame is out", c.g, g.id)
			}
		}
		return nil
	}
	c.phase, c.on = pParked, st.out
	if c.ctx {
		return w.drop(ci)
	}
	return nil
}

// drop runs send's cancel path for parked opener ci.
func (w *combineWorld) drop(ci uint8) error {
	c := &w.callers[ci]
	w.st[c.mode].cancel(c.g)
	g := w.group(c.mode, c.g)
	g.phase = gDropped
	for i := range w.callers {
		if m := &w.callers[i]; m.phase == pMember && m.mode == c.mode && m.g == c.g {
			m.phase = pRegroup
		}
	}
	return w.finish(ci, oCancelled)
}

// seal runs send's seal for the group out in mode m: its frame leaves.
func (w *combineWorld) seal(m uint8) error {
	st := &w.st[m]
	g := w.group(m, st.out)
	if g.phase == gDropped {
		return fmt.Errorf("group %d goes out after it was dropped: its members' increments are sent twice", g.id)
	}
	n := st.seal(g.id)
	if n > st.limit {
		return fmt.Errorf("group %d's frame carries %d increments, over BatchLimit %d", g.id, n, st.limit)
	}
	if n != int(g.joined) {
		return fmt.Errorf("group %d's frame carries %d increments for %d members", g.id, n, g.joined)
	}
	g.phase, g.n = gOut, uint8(n)
	for op := 0; op < xMembers; op++ {
		if g.ops&(1<<op) == 0 {
			continue
		}
		if w.sent[op]++; w.sent[op] > 1 {
			return fmt.Errorf("caller %d's increment %d is sent in a second frame (group %d)", int(op)/xOps, int(op)%xOps, g.id)
		}
		c := &w.callers[int(op)/xOps]
		if int(op)%xOps != int(c.ops) || c.prev == 0 {
			continue
		}
		if pg := w.group(c.prevMode, c.prev); pg != nil && (pg == g || pg.phase != gDone) {
			return fmt.Errorf("caller %d's increment %d rides group %d, not a frame after its last value's (group %d)", int(op)/xOps, c.ops, g.id, c.prev)
		}
	}
	return nil
}

// answer runs sendGroup's end for mode m's frame out: every member still
// waiting gets its value, or the failure.
func (w *combineWorld) answer(m uint8, ok bool) error {
	st := &w.st[m]
	g := w.group(m, st.out)
	st.sent()
	g.phase = gDone
	out := oFailed
	if ok {
		out = oValue
	}
	for i := range w.callers {
		if c := &w.callers[i]; (c.phase == pMember || c.phase == pHold) && c.mode == m && c.g == g.id {
			if err := w.finish(uint8(i), out); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish records caller ci's outcome for its current increment.
func (w *combineWorld) finish(ci uint8, out uint8) error {
	c := &w.callers[ci]
	op := int(ci)*xOps + int(c.ops)
	if w.outcome[op] != oNone {
		return fmt.Errorf("caller %d's increment %d has a second outcome", ci, c.ops)
	}
	w.outcome[op] = out
	if out == oValue {
		c.prev, c.prevMode = c.g, c.mode
	}
	c.phase, c.ops, c.g, c.on = pIdle, c.ops+1, 0, 0
	return nil
}

// settled checks a state with no event left: every increment has
// exactly one outcome.
func (w *combineWorld) settled() error {
	for op, o := range w.outcome {
		if o == oNone {
			return fmt.Errorf("no event left, and caller %d's increment %d has no outcome", op/xOps, op%xOps)
		}
	}
	return nil
}

// prune forgets the finished groups nothing waits on.
func (w *combineWorld) prune() {
	for i := range w.groups {
		g := &w.groups[i]
		if !g.live || g.phase == gOpen || g.phase == gOut || w.st[g.mode].out == g.id {
			continue
		}
		used := false
		for _, c := range w.callers {
			used = used || c.mode == g.mode && c.phase != pIdle && (c.g == g.id || c.phase == pParked && c.on == g.id)
		}
		if !used {
			for j := range w.callers {
				if c := &w.callers[j]; c.prevMode == g.mode && c.prev == g.id {
					c.prev = 0
				}
			}
			*g = xGroup{}
		}
	}
}

// canon renumbers each mode's groups from 1 in order and sorts the
// callers, so schedules that differ only in how many groups came before,
// or in which caller did what, meet in one key.
func (w *combineWorld) canon() string {
	var ids [2][]uint64
	for _, g := range w.groups {
		if g.live {
			ids[g.mode] = append(ids[g.mode], g.id)
		}
	}
	for m := range ids {
		sort.Slice(ids[m], func(i, j int) bool { return ids[m][i] < ids[m][j] })
	}
	re := func(m uint8, id uint64) byte {
		for i, x := range ids[m] {
			if x == id {
				return byte(i + 1)
			}
		}
		return 0
	}
	var tuples [xCallers]string
	order := make([]int, xCallers)
	for i, c := range w.callers {
		t := []byte{c.phase, c.ops, c.prevMode, re(c.prevMode, c.prev)}
		if c.phase != pIdle {
			t = append(t, c.mode, boolByte(c.ctx), re(c.mode, c.g), re(c.mode, c.on))
		}
		tuples[i], order[i] = string(t), i
	}
	sort.SliceStable(order, func(i, j int) bool { return tuples[order[i]] < tuples[order[j]] })
	var inv [xCallers]int
	for pos, i := range order {
		inv[i] = pos
	}
	var b strings.Builder
	for m := uint8(0); m < 2; m++ {
		st := w.st[m]
		b.Write([]byte{byte(len(ids[m])), re(m, st.open), byte(st.n), re(m, st.out)})
		for _, id := range ids[m] {
			g := w.group(m, id)
			var ops byte
			for op := 0; op < xMembers; op++ {
				if g.ops&(1<<op) != 0 {
					ops |= 1 << (inv[op/xOps]*xOps + op%xOps)
				}
			}
			b.Write([]byte{g.phase, g.n, g.joined, ops, byte(g.used)})
		}
	}
	for _, i := range order {
		b.WriteString(tuples[i])
		b.WriteByte(0xff)
	}
	return b.String()
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// TestCombineStateExplore tries every interleaving of xCallers callers'
// increments (xOps each, either mode), their openers' turns, a context
// that ends at any point, and each frame answered or failed, breadth
// first to a fixed point, visiting each distinct state once, at
// BatchLimit 2 and 3. In every state: no caller joins a group after its
// seal (so every member was invoked before its frame left), no two share
// an index, a frame carries its members and at most BatchLimit
// increments, at most one frame per mode is out, no increment is sent
// twice (a regrouped one included), each increment has at most one
// outcome, and a caller's next increment rides a frame sent after its
// last value's was answered. A state with no event left has every
// outcome. A failure prints the schedule.
func TestCombineStateExplore(t *testing.T) {
	for _, limit := range []int{2, 3} {
		depth, states, err := exploreCombine(limit)
		if err != nil {
			t.Fatalf("BatchLimit %d: %v", limit, err)
		}
		t.Logf("BatchLimit %d: fixed point at depth %d: %d distinct states", limit, depth, states)
	}
}

func exploreCombine(limit int) (depth, states int, err error) {
	type node struct {
		parent int32
		ev     xEvent
	}
	nodes := []node{{parent: -1}}
	start := newCombineWorld(limit)
	seen := map[string]bool{start.canon(): true}
	frontier := []combineWorld{start}
	schedule := func(i int, last xEvent) string {
		var evs []string
		if last.kind != evEnd {
			evs = append(evs, last.String())
		}
		for ; nodes[i].parent >= 0; i = int(nodes[i].parent) {
			evs = append([]string{nodes[i].ev.String()}, evs...)
		}
		return strings.Join(evs, " ")
	}
	for lo := 0; len(frontier) > 0; depth++ {
		var next []combineWorld
		hi := len(nodes)
		for i, w := range frontier {
			evs := w.events()
			if len(evs) == 0 {
				if err := w.settled(); err != nil {
					return depth, len(seen), fmt.Errorf("%v\nschedule: %s", err, schedule(lo+i, xEvent{kind: evEnd}))
				}
			}
			for _, ev := range evs {
				nw := w
				if err := nw.step(ev); err != nil {
					return depth, len(seen), fmt.Errorf("%v\nschedule: %s", err, schedule(lo+i, ev))
				}
				nw.prune()
				if k := nw.canon(); !seen[k] {
					seen[k] = true
					nodes = append(nodes, node{parent: int32(lo + i), ev: ev})
					next = append(next, nw)
				}
			}
		}
		lo, frontier = hi, next
	}
	return depth, len(seen), nil
}

// TestBatcherFollowsCombineState drives the real batcher, its lock, its
// groups and their done channels, with a scripted server that holds every
// frame until the test answers or fails it, beside a shadow
// combineWorld stepped through the same events. The seed picks the
// BatchLimit, each increment's mode, and which caller starts, cancels or
// which frame is released when. After every event both batchers' values
// must equal the shadow's, every frame must carry the shadow's group (its
// size, entering on its opener's wire), and every caller must have the
// shadow's outcomes, its values distinct and inside its frame's range.
func TestBatcherFollowsCombineState(t *testing.T) {
	var n followCounts
	for seed := int64(1); seed <= 200; seed++ {
		batcherFollows(t, seed, &n)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
	t.Logf("200 seeds: %d frames, %d dropped unsent, %d regrouped callers, %d frames opened by a regrouped caller the shadow did not pick",
		n.frames, n.drops, n.regrouped, n.swaps)
}

type followCounts struct{ frames, drops, regrouped, swaps int }

// follower is one seed's run: the real client and server script, the
// shadow world, and what each caller has returned.
type follower struct {
	t      *testing.T
	seed   int64
	c      *Client
	srv    net.Conn
	frames [2]chan wire.Frame // frames the server has read, per mode
	held   [2][]wire.Frame    // frames out, read and not yet answered
	sh     combineWorld
	next   int64 // the scripted server's next value
	// Per caller: its op commands, its results, what it has returned,
	// and the value range each of its ops may come from.
	cmds    [xCallers]chan followOp
	results [xCallers]chan incResult
	got     [xCallers][]incResult
	ranges  [xMembers][2]int64
	ambig   [xCallers]bool // rejoined: which member opens its group is the scheduler's
	n       *followCounts
}

type followOp struct {
	mode   wire.Mode
	ctx    context.Context
	cancel context.CancelFunc
}

func batcherFollows(t *testing.T, seed int64, n *followCounts) {
	rng := rand.New(rand.NewSource(seed))
	limit := 2 + rng.Intn(2)
	cli, srv := net.Pipe()
	f := &follower{t: t, seed: seed, srv: srv, sh: newCombineWorld(limit), n: n}
	f.c = NewPeer("script", Options{BatchLimit: limit, Dialer: func(string, time.Duration) (net.Conn, error) { return cli, nil }})
	f.c.shape = network.Shape{Width: xCallers, Sinks: xCallers}
	defer f.c.Close()
	defer srv.Close()
	for m := range f.frames {
		f.frames[m] = make(chan wire.Frame, 4)
	}
	go func() {
		br := bufio.NewReader(srv)
		for {
			fr, err := wire.ReadFrame(br)
			if err != nil {
				return
			}
			f.frames[fr.Mode] <- fr
		}
	}()
	ops := [xCallers]followOp{}
	for i := range f.cmds {
		f.cmds[i], f.results[i] = make(chan followOp), make(chan incResult, xOps)
		go func(i int) {
			for op := range f.cmds[i] {
				v, err := f.c.IncMode(op.ctx, i, op.mode)
				f.results[i] <- incResult{v, err}
			}
		}(i)
		defer close(f.cmds[i])
	}

	for step := 0; step < 60 && !t.Failed(); step++ {
		type choice struct {
			ev      xEvent
			release bool
		}
		var cs []choice
		for i, c := range f.sh.callers {
			switch {
			case c.phase == pIdle && c.ops < xOps:
				cs = append(cs, choice{ev: xEvent{evInc, uint8(i), uint8(rng.Intn(2))}})
			case c.phase != pIdle && !c.ctx && !f.ambig[i] && f.cancelIsFollowable(uint8(i)):
				cs = append(cs, choice{ev: xEvent{kind: evCancel, c: uint8(i)}})
			}
		}
		for m := range f.held {
			if len(f.held[m]) > 0 {
				cs = append(cs, choice{ev: xEvent{kind: evAnswer, m: uint8(m)}, release: true})
			}
		}
		if len(cs) == 0 {
			break
		}
		ch := cs[rng.Intn(len(cs))]
		switch e := ch.ev; {
		case ch.release:
			f.release(e.m, rng.Intn(5) != 0)
		case e.kind == evInc:
			ctx, cancel := context.WithCancel(context.Background())
			ops[e.c] = followOp{mode: wire.Mode(e.m), ctx: ctx, cancel: cancel}
			f.shadow(e)
			f.cmds[e.c] <- ops[e.c]
		case e.kind == evCancel:
			if f.sh.callers[e.c].phase == pParked {
				f.n.drops++
			}
			f.shadow(e)
			ops[e.c].cancel()
		}
		f.settle(fmt.Sprintf("step %d (%v)", step, ch.ev))
	}
	for i, c := range f.sh.callers {
		if c.ops != xOps {
			t.Errorf("seed %d: caller %d finished %d of %d increments", seed, i, c.ops, xOps)
		}
	}
}

// cancelIsFollowable reports whether cancelling caller ci leaves the
// shadow able to follow: a parked opener's members regroup in the
// scheduler's order, so they must all land in one group.
func (f *follower) cancelIsFollowable(ci uint8) bool {
	c := f.sh.callers[ci]
	if c.phase != pParked {
		return true
	}
	st := f.sh.st[c.mode]
	if st.open == c.g || st.open == 0 {
		return true
	}
	k := 0
	for _, m := range f.sh.callers {
		if m.phase == pMember && m.mode == c.mode && m.g == c.g {
			k++
		}
	}
	return k <= st.limit-st.n
}

// shadow steps the shadow through one event of the test's.
func (f *follower) shadow(e xEvent) {
	if err := f.sh.step(e); err != nil {
		f.t.Fatalf("seed %d: shadow: %v", f.seed, err)
	}
}

// release answers (or fails) mode m's frame out, on the server and in
// the shadow.
func (f *follower) release(m uint8, ok bool) {
	fr := f.held[m][0]
	f.held[m] = f.held[m][1:]
	reply := wire.Frame{ID: fr.ID, Type: wire.TError, Code: wire.CodeBadRequest}
	if ok {
		reply = wire.Frame{ID: fr.ID, Type: wire.TRanges, Rs: []wire.Range{{First: f.next, Stride: 1, Count: fr.K}}}
		g := f.sh.st[m].out
		for i, c := range f.sh.callers {
			if (c.phase == pMember || c.phase == pHold) && c.mode == m && c.g == g {
				f.ranges[i*xOps+int(c.ops)] = [2]int64{f.next, f.next + fr.K}
			}
		}
		f.next += fr.K
	}
	f.shadow(xEvent{kind: [2]uint8{evFail, evAnswer}[boolByte(ok)], m: m})
	buf, err := wire.AppendFrame(nil, &reply)
	if err != nil {
		f.t.Fatal(err)
	}
	if _, err := f.srv.Write(buf); err != nil {
		f.t.Fatal(err)
	}
}

// settle runs the shadow's own steps (takes, wakes, rejoins, seals) to
// quiescence, following the real batcher wherever the scheduler picks,
// then compares the two.
func (f *follower) settle(when string) {
	for progress := true; progress && !f.t.Failed(); {
		progress = false
		for i, c := range f.sh.callers {
			switch {
			case c.phase == pBid:
				f.shadow(xEvent{kind: evTake, c: uint8(i)})
				progress = true
			case c.phase == pRegroup:
				f.shadow(xEvent{kind: evRejoin, c: uint8(i)})
				f.ambig[i] = true
				f.n.regrouped++
				progress = true
			}
		}
		if progress {
			continue
		}
		for m := uint8(0); m < 2; m++ {
			st := &f.sh.st[m]
			var parked []int
			for i, c := range f.sh.callers {
				if c.phase == pParked && c.mode == m && st.out == 0 {
					parked = append(parked, i)
				}
			}
			if g := f.sh.group(m, st.out); g != nil && g.phase == gOpen || len(parked) > 0 {
				f.frameOut(m, parked)
				progress = true
			}
		}
	}
	f.compare(when)
}

// frameOut waits for the real batcher's next frame of mode m, lets the
// shadow's opener of that group (whose wire it entered on) take the turn
// if a parked one must, seals the shadow's group and checks the frame.
func (f *follower) frameOut(m uint8, parked []int) {
	var fr wire.Frame
	select {
	case fr = <-f.frames[m]:
	case <-time.After(10 * time.Second):
		f.t.Fatalf("seed %d: no %v frame from the real batcher; shadow %+v", f.seed, wire.Mode(m), f.sh.st[m])
	}
	w := int(fr.Wire)
	c := &f.sh.callers[w]
	opener := -1
	for i, o := range f.sh.callers {
		if (o.phase == pParked || o.phase == pHold) && o.mode == m && o.g == c.g && o.ops < xOps {
			opener = i
		}
	}
	switch {
	case c.mode != m || opener < 0 || c.phase == pIdle:
		f.t.Fatalf("seed %d: a %v frame entered on wire %d, whose caller the shadow has in no group of that mode", f.seed, wire.Mode(m), w)
	case opener != w && !f.ambig[w]:
		f.t.Fatalf("seed %d: a %v frame entered on wire %d; the shadow's opener is caller %d", f.seed, wire.Mode(m), w, opener)
	case opener != w:
		f.n.swaps++
		o := &f.sh.callers[opener]
		o.phase, c.phase = c.phase, o.phase
		o.on, c.on = c.on, o.on
	}
	if len(parked) > 0 {
		f.shadow(xEvent{kind: evWake, c: uint8(w)})
		for _, i := range parked {
			if i != w {
				f.shadow(xEvent{kind: evWake, c: uint8(i)})
			}
		}
	}
	g := f.sh.st[m].out
	f.shadow(xEvent{kind: evSeal, m: m})
	if n := f.sh.group(m, g).n; fr.K != int64(n) {
		f.t.Fatalf("seed %d: the real frame carries %d increments, the shadow's group %d", f.seed, fr.K, n)
	}
	for i := range f.sh.callers {
		if f.sh.callers[i].g == g && f.sh.callers[i].mode == m {
			f.ambig[i] = false
		}
	}
	f.held[m] = append(f.held[m], fr)
	f.n.frames++
}

// compare waits for the real batcher to reach the shadow's values and
// every caller to return what the shadow says it has.
func (f *follower) compare(when string) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		same := true
		for m := range f.c.batchers {
			b := &f.c.batchers[m]
			b.mu.Lock()
			same = same && b.st == f.sh.st[m]
			b.mu.Unlock()
		}
		for i := range f.got {
			select {
			case r := <-f.results[i]:
				f.got[i] = append(f.got[i], r)
			default:
			}
			same = same && len(f.got[i]) == int(f.sh.callers[i].ops)
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("seed %d, %s: real values %+v %+v, returns %v; shadow %+v %+v, callers %+v",
				f.seed, when, f.c.batchers[0].st, f.c.batchers[1].st, f.got, f.sh.st[0], f.sh.st[1], f.sh.callers)
		}
		time.Sleep(50 * time.Microsecond)
	}
	seen := map[int64]bool{}
	for i, rs := range f.got {
		for k, r := range rs {
			op := i*xOps + k
			want := f.sh.outcome[op]
			switch {
			case r.err == nil && want == oValue:
				rg := f.ranges[op]
				if r.v < rg[0] || r.v >= rg[1] || seen[r.v] {
					f.t.Fatalf("seed %d, %s: caller %d's increment %d got %d: outside its frame's [%d,%d) or dealt twice", f.seed, when, i, k, r.v, rg[0], rg[1])
				}
				seen[r.v] = true
			case errors.Is(r.err, context.Canceled) && want != oNone:
				// Only the test cancels; an opener cancelled while it held
				// the turn sees its frame's outcome or its cancellation.
			case r.err != nil && want == oFailed && errors.Is(r.err, wire.ErrBadFrame):
			default:
				f.t.Fatalf("seed %d, %s: caller %d's increment %d returned %d, %v; the shadow's outcome is %d", f.seed, when, i, k, r.v, r.err, want)
			}
		}
	}
}
