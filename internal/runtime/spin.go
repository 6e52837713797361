package runtime

import goruntime "runtime"

// spinLimit is how many failed polls a waiter spins through before it
// starts yielding, and yieldLimit how many times it yields before it
// parks. A hand-off between two running goroutines lands within a few
// polls; past that the goroutine being waited on is most likely
// descheduled, and every further poll burns the time slice it needs.
// While every P has a core, a yield lets it run again. With more Ps than
// cores its thread can be descheduled by the operating system, and a
// first-in-first-out hand-off then waits out OS time slices however often
// its waiters yield: only waiters that sleep until woken give the cores
// back.
const (
	spinLimit  = 64
	yieldLimit = 16
)

// spinWait paces a poll loop: the waiter calls wait once per failed poll.
// Without the yields, waiters in a queue form a convoy: at GOMAXPROCS 2 a
// million increments through QueueLockCounter did not finish in 90 s;
// without the park they did not finish in 60 s at GOMAXPROCS 8 on two
// cores.
type spinWait int

// wait spins through the first spinLimit calls, yields the P through the
// next yieldLimit, and then reports false: the waiter should park until
// the goroutine it waits on wakes it.
func (s *spinWait) wait() bool {
	*s++
	switch {
	case *s <= spinLimit:
	case *s <= spinLimit+yieldLimit:
		goruntime.Gosched()
	default:
		return false
	}
	return true
}

// yielding reports whether the spins are spent: polls are now slow enough
// to afford a check that takes a lock.
func (s *spinWait) yielding() bool { return *s >= spinLimit }
