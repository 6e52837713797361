package runtime

import (
	"sync"
	"time"

	"repro/internal/consistency"
)

// Workload drives a Counter from concurrent workers and records every
// operation with wall-clock timestamps, so executions of the real
// concurrent object can be audited by consistency.Audit, as the
// simulator's are. A Counter has no mode, so every record has LIN
// false and lands in the report's SC share.
type Workload struct {
	// Workers and OpsPerWorker shape the load.
	Workers, OpsPerWorker int
	// Pace, when positive, is a local inter-operation delay each worker
	// observes between completing one increment and issuing the next — the
	// paper's Theorem 4.1 timer, implemented exactly as suggested: "upon
	// completion of an operation the process sets a timer ... it may then
	// issue another operation".
	Pace time.Duration
	// WireFor maps a worker to its pinned input wire; nil pins worker i to
	// wire i mod fan-in (the Counter may ignore wires entirely).
	WireFor func(worker int) int
	// Monitor, when non-nil, receives every completed operation as it
	// happens (worker id, value, wall-clock start/end) — live consistency
	// auditing, the way a deployment would watch its counter.
	Monitor *consistency.Online
}

// Run executes the workload and returns one record per operation, in
// worker order: worker i is process i, stamped in wall-clock nanoseconds.
// Operation A completely precedes B when A finished before B started,
// exactly the real-time order linearizability constrains.
func (w Workload) Run(c Counter) []consistency.Record {
	recs := make([]consistency.Record, w.Workers*w.OpsPerWorker)
	vals := make([]int64, len(recs))
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for id := 0; id < w.Workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wire := id
			if w.WireFor != nil {
				wire = w.WireFor(id)
			}
			start.Wait()
			next := time.Now()
			for k := 0; k < w.OpsPerWorker; k++ {
				if w.Pace > 0 {
					for time.Now().Before(next) {
					}
				}
				i, s := id*w.OpsPerWorker+k, time.Now().UnixNano()
				vals[i] = c.Inc(wire)
				recs[i] = consistency.Record{Process: id, Index: k, Values: vals[i : i+1 : i+1], Invoke: s, Respond: time.Now().UnixNano()}
				if w.Monitor != nil {
					w.Monitor.Report(id, vals[i], s, recs[i].Respond)
				}
				if w.Pace > 0 {
					next = time.Now().Add(w.Pace)
				}
			}
		}(id)
	}
	start.Done()
	wg.Wait()
	return recs
}
