package dst

import (
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestCheckInvariantsHandMadeHistories feeds checkInvariants hand-made
// histories of a width-4 run and requires each to fail at the right
// checker, naming the right operations — the audit's own regression test,
// independent of what the simulator happens to produce.
func TestCheckInvariantsHandMadeHistories(t *testing.T) {
	const us = time.Microsecond
	// inc is one successful increment op by worker wk delivering vals over
	// the simulated-time span [start, end].
	inc := func(wk, idx int, mode wire.Mode, start, end time.Duration, vals ...int64) OpRecord {
		kind := OpInc
		if len(vals) > 1 {
			kind = OpBatch
		}
		return OpRecord{Worker: wk, Index: idx, Kind: kind, Mode: mode, K: len(vals), Start: start, End: end, Vals: vals}
	}
	tests := []struct {
		name    string
		adverse bool // the scenario injects faults: values may burn
		issued  int64
		ops     []OpRecord
		want    []string // one substring per expected violation, in order; none = pass
	}{
		{
			name:   "clean 0..N-1",
			issued: 6,
			ops: []OpRecord{
				inc(0, 0, wire.ModeSC, 1*us, 2*us, 1),
				inc(1, 0, wire.ModeLIN, 1*us, 3*us, 0),
				inc(0, 1, wire.ModeSC, 4*us, 5*us, 4, 5),
				inc(1, 1, wire.ModeLIN, 4*us, 6*us, 2, 3),
			},
		},
		{
			name:   "duplicate",
			issued: 4,
			ops: []OpRecord{
				inc(1, 3, wire.ModeSC, 1*us, 2*us, 0, 1),
				inc(2, 0, wire.ModeSC, 1*us, 2*us, 2, 1),
			},
			want: []string{"duplicate value 1 delivered to w1/op3 and w2/op0", "clean run: runtime: duplicate value 1"},
		},
		{
			name:   "out of range",
			issued: 3,
			ops: []OpRecord{
				inc(0, 0, wire.ModeSC, 1*us, 2*us, 0, 1),
				inc(1, 0, wire.ModeSC, 1*us, 2*us, 7),
			},
			want: []string{"clean run: runtime: value 7 outside 0..2"},
		},
		{
			name:   "gap",
			issued: 4,
			ops: []OpRecord{
				inc(0, 0, wire.ModeSC, 1*us, 2*us, 0, 1),
				inc(1, 0, wire.ModeSC, 1*us, 2*us, 3),
			},
			want: []string{"clean run delivered 3 values, issued 4"},
		},
		{
			// Under injected faults values burn, so gaps pass; a value the
			// server never issued still does not.
			name:    "adverse run: gaps pass, the issued bound holds",
			adverse: true,
			issued:  6,
			ops: []OpRecord{
				inc(0, 0, wire.ModeSC, 1*us, 2*us, 0, 5),
				inc(1, 0, wire.ModeSC, 1*us, 2*us, 6),
			},
			want: []string{"value 6 outside issued range [0,6)"},
		},
		{
			// w0's LIN batch ended at 2µs holding 2 and 3; w1's LIN batch
			// started at 3µs and was handed 1 — below a value whose op
			// had already ended. Only the batch's last value is inverted:
			// the expansion must carry the stamps onto every value.
			name:   "LIN inversion across a batch boundary",
			issued: 6,
			ops: []OpRecord{
				inc(0, 0, wire.ModeLIN, 1*us, 2*us, 2, 3),
				inc(1, 5, wire.ModeLIN, 3*us, 4*us, 4, 5, 1),
				inc(2, 0, wire.ModeSC, 1*us, 2*us, 0),
			},
			want: []string{"LIN non-linearizable: w1/op5 (val 1, started 3000)"},
		},
		{
			// End == Start is overlap, not precedence: no inversion.
			name:   "equal stamps",
			issued: 2,
			ops: []OpRecord{
				inc(0, 0, wire.ModeLIN, 1*us, 2*us, 1),
				inc(1, 0, wire.ModeLIN, 2*us, 3*us, 0),
			},
		},
		{
			// The same inversion between SC ops is the paper's permitted
			// behaviour, not a violation.
			name:   "SC inversion is allowed",
			issued: 2,
			ops: []OpRecord{
				inc(0, 0, wire.ModeSC, 1*us, 2*us, 1),
				inc(1, 0, wire.ModeSC, 3*us, 4*us, 0),
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := &Result{Scenario: Scenario{Width: 4}, Issued: tt.issued, Ops: tt.ops}
			if tt.adverse {
				res.Scenario.DropProb = 0.1
			}
			checkInvariants(res, NewWorld(1, 0, 0, nil, 0))
			if len(res.Violations) != len(tt.want) {
				t.Fatalf("violations = %q, want %d matching %q", res.Violations, len(tt.want), tt.want)
			}
			for i, want := range tt.want {
				if !strings.Contains(res.Violations[i], want) {
					t.Errorf("violation %d = %q, want it to contain %q", i, res.Violations[i], want)
				}
			}
		})
	}
}
