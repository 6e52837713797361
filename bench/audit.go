package main

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// idSet is a concurrent bitset over counter values: every value a
// workload is handed is marked once, and a second marking of the same
// value — a duplicate mint, the one thing the system must never do — or
// a value outside [0, cap) is counted instead of lost.
type idSet struct {
	words []atomic.Uint64
	dups  atomic.Int64
	outOf atomic.Int64
}

func newIDSet(capacity int64) *idSet {
	return &idSet{words: make([]atomic.Uint64, (capacity+63)/64)}
}

// mark records id and reports whether it was fresh and in range.
func (s *idSet) mark(id int64) bool {
	if id < 0 || id >= int64(len(s.words))*64 {
		s.outOf.Add(1)
		return false
	}
	w, bit := &s.words[id>>6], uint64(1)<<(uint(id)&63)
	for {
		old := w.Load()
		if old&bit != 0 {
			s.dups.Add(1)
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// count returns how many ids are marked and one past the largest.
func (s *idSet) count() (n, end int64) {
	for i := range s.words {
		if w := s.words[i].Load(); w != 0 {
			n += int64(bits.OnesCount64(w))
			end = int64(i)*64 + int64(bits.Len64(w))
		}
	}
	return n, end
}

// check fails on any duplicate, any out-of-range value, or a value at
// or beyond issued (the server's own count of values handed out).
func (s *idSet) check(issued int64) error {
	if d := s.dups.Load(); d != 0 {
		return fmt.Errorf("%d duplicate ids", d)
	}
	if o := s.outOf.Load(); o != 0 {
		return fmt.Errorf("%d ids outside [0,%d)", o, int64(len(s.words))*64)
	}
	if n, end := s.count(); end > issued {
		return fmt.Errorf("id %d returned (%d ids in all) but only %d issued", end-1, n, issued)
	}
	return nil
}
