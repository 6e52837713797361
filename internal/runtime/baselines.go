package runtime

import (
	"sync"
	"sync/atomic"
)

// QueueLockCounter serialises increments behind a CLH-style queue lock
// (Mellor-Crummey & Scott 1991, cited as the queue-lock alternative in the
// paper's introduction): waiters spin on their predecessor's flag, so the
// lock hand-off touches only two cache lines.
type QueueLockCounter struct {
	tail atomic.Pointer[clhNode]
	v    int64
	once sync.Once
}

type clhNode struct {
	locked atomic.Bool
	_      [7]int64 // avoid false sharing between spinning waiters
}

func (c *QueueLockCounter) init() {
	c.once.Do(func() {
		c.tail.Store(new(clhNode)) // dummy unlocked predecessor
	})
}

// Inc implements Counter.
func (c *QueueLockCounter) Inc(int) int64 {
	c.init()
	me := new(clhNode)
	me.locked.Store(true)
	pred := c.tail.Swap(me)
	for pred.locked.Load() {
	}
	v := c.v
	c.v++
	me.locked.Store(false)
	return v
}

// CombiningTree is a software combining tree (Goodman, Vernon & Woest
// 1989; implementation follows Herlihy & Shavit's presentation): threads
// climb a binary tree, pairs of concurrent increments combine at internal
// nodes, and only the combined total touches the root. Under heavy
// contention the root sees O(log n) of the traffic; under light contention
// the tree adds pure overhead — the trade-off the counting-network papers
// measure against.
type CombiningTree struct {
	leaves []*combNode
	// admit bounds each leaf to the two threads the FIRST/SECOND protocol
	// can combine; a third arriving mid-combine would find the leaf in a
	// status precombine has no move for.
	admit []chan struct{}
	root  *combNode
}

type combStatus int

const (
	combIdle combStatus = iota + 1
	combFirst
	combSecond
	combResult
	combRoot
)

type combNode struct {
	mu          sync.Mutex
	cond        *sync.Cond
	status      combStatus
	locked      bool
	firstValue  int64
	secondValue int64
	result      int64
	parent      *combNode
}

func newCombNode(parent *combNode, status combStatus) *combNode {
	n := &combNode{status: status, parent: parent}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// NewCombiningTree builds a tree with the given number of leaves (a power
// of two). Callers map each thread to a leaf via Inc's wire argument; two
// threads per leaf is the classic configuration, and Inc makes any further
// thread mapped to a busy leaf wait its turn.
func NewCombiningTree(leaves int) *CombiningTree {
	t := &CombiningTree{root: newCombNode(nil, combRoot)}
	level := []*combNode{t.root}
	for len(level) < leaves {
		next := make([]*combNode, 0, len(level)*2)
		for _, p := range level {
			next = append(next, newCombNode(p, combIdle), newCombNode(p, combIdle))
		}
		level = next
	}
	t.leaves = level
	t.admit = make([]chan struct{}, len(level))
	for i := range t.admit {
		t.admit[i] = make(chan struct{}, 2)
	}
	return t
}

// precombine claims the node for climbing; reports whether the thread
// should continue to the parent.
func (n *combNode) precombine() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.locked {
		n.cond.Wait()
	}
	switch n.status {
	case combIdle:
		n.status = combFirst
		return true
	case combFirst:
		n.locked = true
		n.status = combSecond
		return false
	case combRoot:
		return false
	default:
		panic("runtime: unexpected combining status in precombine")
	}
}

// combine folds the second thread's deposit into the climbing total.
func (n *combNode) combine(combined int64) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.locked {
		n.cond.Wait()
	}
	n.locked = true
	n.firstValue = combined
	switch n.status {
	case combFirst:
		return n.firstValue
	case combSecond:
		return n.firstValue + n.secondValue
	default:
		panic("runtime: unexpected combining status in combine")
	}
}

// op applies the combined increment at the stop node and returns the prior
// total assigned to this thread's bundle.
func (n *combNode) op(combined int64) int64 {
	switch n.status {
	case combRoot:
		n.mu.Lock()
		prior := n.result
		n.result += combined
		n.mu.Unlock()
		return prior
	case combSecond:
		n.mu.Lock()
		defer n.mu.Unlock()
		n.secondValue = combined
		n.locked = false
		n.cond.Broadcast() // let the first thread's combine proceed
		for n.status != combResult {
			n.cond.Wait()
		}
		// The first thread's combine re-locked the node; release it now
		// that the distribution has landed.
		n.locked = false
		n.status = combIdle
		n.cond.Broadcast()
		return n.result
	default:
		panic("runtime: unexpected combining status in op")
	}
}

// distribute walks back down, handing each combined partner its share.
func (n *combNode) distribute(prior int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.status {
	case combFirst:
		// Nobody combined with us here; release the node.
		n.status = combIdle
		n.locked = false
	case combSecond:
		// The second thread's bundle starts after our firstValue tokens.
		n.result = prior + n.firstValue
		n.status = combResult
	default:
		panic("runtime: unexpected combining status in distribute")
	}
	n.cond.Broadcast()
}

// Inc implements Counter; wire selects the starting leaf.
func (t *CombiningTree) Inc(wire int) int64 {
	slot := wire % len(t.leaves)
	leaf := t.leaves[slot]
	t.admit[slot] <- struct{}{}

	// Precombine: claim nodes upward until reaching the root or a node
	// someone else already claimed as FIRST (we become its SECOND and stop
	// there).
	node := leaf
	for node.precombine() {
		node = node.parent
	}
	stop := node

	// Combine: fold deposits from below into our bundle on the way up to
	// the stop node (exclusive), remembering the path for distribution.
	combined := int64(1)
	var path []*combNode
	for node = leaf; node != stop; node = node.parent {
		combined = node.combine(combined)
		path = append(path, node)
	}

	// Operate at the stop node: either add the bundle at the root, or
	// deposit it for the FIRST thread and wait for our share.
	prior := stop.op(combined)

	// Distribute shares back down the path (top to bottom).
	for i := len(path) - 1; i >= 0; i-- {
		path[i].distribute(prior)
	}
	<-t.admit[slot]
	return prior
}
