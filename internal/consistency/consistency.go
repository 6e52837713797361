// Package consistency implements the paper's consistency conditions for
// counting, adapted from linearizability (Herlihy–Wing) and sequential
// consistency (Lamport) in Section 2.4, together with the inconsistency
// fractions of Section 5.1.
//
// Operations carry their precedence information as global step-sequence
// numbers (EnterSeq/ExitSeq): token T completely precedes T' exactly when
// T's last step is sequenced before T”s first step, mirroring the formal
// definition over executions.
package consistency

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Op is one completed counter operation (token traversal).
type Op struct {
	// Process identifies the issuing process; Index is the operation's
	// 0-based issue order within that process.
	Process int
	Index   int
	// Value is the counter value obtained.
	Value int64
	// EnterSeq and ExitSeq position the operation's first and last
	// transition steps in the execution's total step order.
	EnterSeq, ExitSeq int64
}

// CompletelyPrecedes reports whether o's last step precedes p's first step
// in the execution.
func (o Op) CompletelyPrecedes(p Op) bool { return o.ExitSeq < p.EnterSeq }

// NonLinearizable marks each operation that is non-linearizable in the
// sense of LSST99 (Section 5.1): some other operation completely precedes
// it yet returned a larger value. The result is indexed like ops.
func NonLinearizable(ops []Op) []bool {
	marks := make([]bool, len(ops))
	for i, k := range displacements(ops) {
		marks[i] = k > 0
	}
	return marks
}

// displacements returns, indexed like ops, how far each operation's value
// falls below the largest value of an operation that completely precedes
// it: the distance from linearizability that NonLinearizable marks when
// it is positive.
func displacements(ops []Op) []int64 {
	out := make([]int64, len(ops))
	if len(ops) == 0 {
		return out
	}
	// Sweep operations by EnterSeq, maintaining the maximum value among
	// operations whose ExitSeq has already passed.
	byEnter := sortedIdx(len(ops), func(a, b int) int { return cmp.Compare(ops[a].EnterSeq, ops[b].EnterSeq) })
	byExit := sortedIdx(len(ops), func(a, b int) int { return cmp.Compare(ops[a].ExitSeq, ops[b].ExitSeq) })
	maxDone := int64(-1)
	j := 0
	for _, i := range byEnter {
		for j < len(byExit) && ops[byExit[j]].ExitSeq < ops[i].EnterSeq {
			if v := ops[byExit[j]].Value; v > maxDone {
				maxDone = v
			}
			j++
		}
		if maxDone > ops[i].Value {
			out[i] = maxDone - ops[i].Value
		}
	}
	return out
}

// NonSequentiallyConsistent marks each operation preceded, at the same
// process, by an operation that returned a larger value.
func NonSequentiallyConsistent(ops []Op) []bool {
	marks := make([]bool, len(ops))
	maxByProc := make(map[int]int64)
	order := sortedIdx(len(ops), func(a, b int) int {
		return cmp.Or(cmp.Compare(ops[a].Process, ops[b].Process), cmp.Compare(ops[a].Index, ops[b].Index))
	})
	for _, i := range order {
		best, ok := maxByProc[ops[i].Process]
		if ok && best > ops[i].Value {
			marks[i] = true
		}
		if !ok || ops[i].Value > best {
			maxByProc[ops[i].Process] = ops[i].Value
		}
	}
	return marks
}

// Linearizable reports whether the execution admits a linearization in
// which values strictly increase. For counting executions with distinct
// values this holds exactly when no operation is non-linearizable: with no
// inversion across complete precedence, ordering by value is itself a
// linearization, and conversely any inversion defeats every linearization.
func Linearizable(ops []Op) bool {
	for _, bad := range NonLinearizable(ops) {
		if bad {
			return false
		}
	}
	return true
}

// SequentiallyConsistent reports whether every process observed strictly
// increasing values (the paper's Section 2.4 adaptation of Lamport's
// condition to counting).
func SequentiallyConsistent(ops []Op) bool {
	for _, bad := range NonSequentiallyConsistent(ops) {
		if bad {
			return false
		}
	}
	return true
}

// Fractions reports the execution's inconsistency fractions (Section 5.1).
type Fractions struct {
	Total int
	// NonLin and NonSC count operations marked by NonLinearizable and
	// NonSequentiallyConsistent.
	NonLin, NonSC int
	// AbsNonLin is the least number of removals that leaves a linearizable
	// execution; by Lemma 5.1 it equals NonLin.
	AbsNonLin int
	// AbsNonSC is the least number of removals that leaves a sequentially
	// consistent execution (per-process longest increasing subsequence
	// complement).
	AbsNonSC int
}

// NonLinFraction returns NonLin / Total, or 0 for empty executions.
func (f Fractions) NonLinFraction() float64 { return frac(f.NonLin, f.Total) }

// NonSCFraction returns NonSC / Total, or 0 for empty executions.
func (f Fractions) NonSCFraction() float64 { return frac(f.NonSC, f.Total) }

// AbsNonLinFraction returns AbsNonLin / Total, or 0 for empty executions.
func (f Fractions) AbsNonLinFraction() float64 { return frac(f.AbsNonLin, f.Total) }

// AbsNonSCFraction returns AbsNonSC / Total, or 0 for empty executions.
func (f Fractions) AbsNonSCFraction() float64 { return frac(f.AbsNonSC, f.Total) }

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// String implements fmt.Stringer.
func (f Fractions) String() string {
	return fmt.Sprintf("F_nl=%d/%d (%.4f) F_nsc=%d/%d (%.4f)",
		f.NonLin, f.Total, f.NonLinFraction(), f.NonSC, f.Total, f.NonSCFraction())
}

// Measure computes all inconsistency fractions of an execution.
func Measure(ops []Op) Fractions {
	f := Fractions{Total: len(ops)}
	for _, bad := range NonLinearizable(ops) {
		if bad {
			f.NonLin++
		}
	}
	for _, bad := range NonSequentiallyConsistent(ops) {
		if bad {
			f.NonSC++
		}
	}
	f.AbsNonLin = f.NonLin // Lemma 5.1 (verified against brute force in tests)
	f.AbsNonSC = MinRemovalsSC(ops)
	return f
}

// MinRemovalsSC returns the least number of operations whose removal
// leaves every process's value sequence strictly increasing: per process,
// the complement of a longest increasing subsequence.
func MinRemovalsSC(ops []Op) int {
	byProc := make(map[int][]Op)
	for _, op := range ops {
		byProc[op.Process] = append(byProc[op.Process], op)
	}
	removals := 0
	for _, seq := range byProc {
		sort.Slice(seq, func(a, b int) bool { return seq[a].Index < seq[b].Index })
		removals += len(seq) - lisLength(seq)
	}
	return removals
}

// lisLength returns the length of the longest strictly increasing
// subsequence of values, in patience-sorting O(n log n).
func lisLength(seq []Op) int {
	tails := make([]int64, 0, len(seq))
	for _, op := range seq {
		lo, hi := 0, len(tails)
		for lo < hi {
			mid := (lo + hi) / 2
			if tails[mid] < op.Value {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(tails) {
			tails = append(tails, op.Value)
		} else {
			tails[lo] = op.Value
		}
	}
	return len(tails)
}

// sortedIdx returns 0..n-1 stably ordered by order over element indices.
func sortedIdx(n int, order func(a, b int) int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, order)
	return idx
}

// WitnessNonSequentiallyConsistent returns indices (earlier, later) of one
// same-process pair whose values decreased. ok is false when the execution
// is sequentially consistent.
func WitnessNonSequentiallyConsistent(ops []Op) (earlier, later int, ok bool) {
	marks := NonSequentiallyConsistent(ops)
	for i, bad := range marks {
		if !bad {
			continue
		}
		for j := range ops {
			if ops[j].Process == ops[i].Process && ops[j].Index < ops[i].Index && ops[j].Value > ops[i].Value {
				return j, i, true
			}
		}
	}
	return 0, 0, false
}
