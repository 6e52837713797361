package consistency

import (
	"cmp"
	"slices"
)

// Record is one completed operation as its caller saw it: the process
// that issued it, its place in that process's issue order, whether it
// asked for linearizability (LIN) or sequential consistency, the values
// it was handed (a batch is handed several) and when it was invoked and
// answered, on one clock.
type Record struct {
	Process, Index  int
	LIN             bool
	Values          []int64
	Invoke, Respond int64
}

// ModeReport is one mode's share of a Report.
type ModeReport struct {
	// Ops counts the records of this mode that were handed a value.
	Ops int
	// NonLin counts the records an already-answered record of the same
	// mode outran, by up to Displacement (the F_nl numerator); NonSC the
	// records an earlier record of the same process, in either mode,
	// outran (the F_nsc numerator, session order).
	NonLin, NonSC int
	Displacement  int64
}

// Fractions returns the mode's inconsistency fractions, AbsNonSC aside.
func (m ModeReport) Fractions() Fractions {
	return Fractions{Total: m.Ops, NonLin: m.NonLin, NonSC: m.NonSC, AbsNonLin: m.NonLin}
}

// Report is what Audit found. Each witness is an index into the audited
// records, or -1: Dup names the two records that got DupValue, the
// duplicate whose repeat comes first; Late the first record LIN.NonLin
// counts; Behind the first record a NonSC counts. Stray is the first
// value outside [0, issued).
type Report struct {
	Duplicates, OutOfRange int
	SC, LIN                ModeReport
	Dup                    [2]int
	DupValue, Stray        int64
	Late, Behind           int
}

// SessionBreaks counts the records an earlier record of their own process
// outran, in either mode.
func (r Report) SessionBreaks() int { return r.SC.NonSC + r.LIN.NonSC }

// Audit checks a history against the counter's contract (Section 2.4):
// no value is handed out twice, every value lies in [0, issued), each
// mode keeps real-time order, and every process keeps its own order
// across both modes. Pass math.MaxInt64 as issued where the values are
// not dense from 0, and equal stamps where no clock was read: then no
// record precedes another.
//
// The ordering checks are NonSequentiallyConsistent over the whole
// history and NonLinearizable's sweep over each mode, on a record's
// smallest value at index 2i and its largest at 2i+1: a batch's values
// are never compared with each other, and a record is outrun exactly
// when its smallest value is. Records handed no value are skipped.
func Audit(recs []Record, issued int64) Report {
	r := Report{Dup: [2]int{-1, -1}, Late: -1, Behind: -1}
	// ops[j] is recs[owner[j]]'s; ops[:split] are SC, ops[split:] LIN.
	ops, owner, split := make([]Op, 0, len(recs)), make([]int, 0, len(recs)), 0
	for _, lin := range [2]bool{false, true} {
		for i, rec := range recs {
			if rec.LIN != lin || len(rec.Values) == 0 {
				continue
			}
			lo, hi := slices.Min(rec.Values), slices.Max(rec.Values)
			op := Op{Process: rec.Process, Index: 2 * rec.Index, Value: lo, EnterSeq: rec.Invoke, ExitSeq: rec.Respond}
			ops, owner = append(ops, op), append(owner, i)
			if hi != lo {
				op.Index, op.Value = op.Index+1, hi
				ops, owner = append(ops, op), append(owner, i)
			}
			r.mode(lin).Ops++
		}
		if !lin {
			split = len(ops)
		}
	}

	// Equal values sort together in input order, so the earliest repeat
	// is the second delivery of a run that sits in the earliest record.
	type delivery struct {
		v   int64
		rec int
	}
	all := make([]delivery, 0, len(recs))
	for i, rec := range recs {
		for _, v := range rec.Values {
			if v < 0 || v >= issued {
				if r.OutOfRange++; r.OutOfRange == 1 {
					r.Stray = v
				}
			}
			all = append(all, delivery{v, i})
		}
	}
	slices.SortStableFunc(all, func(a, b delivery) int { return cmp.Compare(a.v, b.v) })
	for i := 1; i < len(all); i++ {
		if a, b := all[i-1], all[i]; a.v == b.v {
			if r.Duplicates++; r.Dup[1] < 0 || b.rec < r.Dup[1] {
				r.Dup, r.DupValue = [2]int{a.rec, b.rec}, b.v
			}
		}
	}

	// A record's smallest value comes first among its ops, and it is the
	// one outrun whenever any of them is.
	lead := func(j int) bool { return j == 0 || owner[j-1] != owner[j] }
	for j, bad := range NonSequentiallyConsistent(ops) {
		if rec := owner[j]; bad && lead(j) {
			r.mode(recs[rec].LIN).NonSC++
			if r.Behind < 0 || rec < r.Behind {
				r.Behind = rec
			}
		}
	}
	for _, part := range [2][2]int{{0, split}, {split, len(ops)}} {
		for j, k := range displacements(ops[part[0]:part[1]]) {
			if j += part[0]; k > 0 && lead(j) {
				rec := owner[j]
				m := r.mode(recs[rec].LIN)
				m.NonLin, m.Displacement = m.NonLin+1, max(m.Displacement, k)
				if recs[rec].LIN && r.Late < 0 {
					r.Late = rec // LIN ops are in input order
				}
			}
		}
	}
	return r
}

// mode returns the share of the records whose LIN field is lin.
func (r *Report) mode(lin bool) *ModeReport {
	if lin {
		return &r.LIN
	}
	return &r.SC
}
