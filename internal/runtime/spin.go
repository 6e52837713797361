package runtime

import goruntime "runtime"

// spinLimit is how many failed polls a waiter spins through before it
// starts yielding. A hand-off between two running goroutines lands within
// a few polls; past that the goroutine being waited on is most likely
// descheduled, and every further poll burns the time slice it needs.
const spinLimit = 64

// spinWait paces a poll loop: the waiter calls wait once per failed poll.
// The first spinLimit calls return at once; every later call yields the P,
// so a waiter queued behind a preempted goroutine lets it run instead of
// spinning out a whole time slice. Without the yield, waiters in a queue
// form a convoy: at GOMAXPROCS 2 a million increments through
// QueueLockCounter did not finish in 90 s.
//
// A yield only helps while every P has a core: with more Ps than cores the
// goroutine waited on can sit on a thread the operating system
// descheduled, and a first-in-first-out hand-off then waits out OS time
// slices whatever the waiter does.
type spinWait int

// wait reports whether it yielded.
func (s *spinWait) wait() bool {
	if *s < spinLimit {
		*s++
		return false
	}
	goruntime.Gosched()
	return true
}
