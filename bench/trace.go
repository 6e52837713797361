package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/flightrec"
)

// span is one call the harness made into a layer, stamped from outside.
type span struct {
	name       string
	start, end int64  // UnixNano, the clock the flight recorders use
	parent     int    // index of the span that caused it, -1 for a root
	op         uint64 // schedule index or id of the operation, 0 if none
}

// tracer keeps the harness's spans in memory until the run ends. A nil
// tracer records nothing, so the untraced run pays one nil check.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its index for children.
func (t *tracer) add(name string, parent int, op uint64, start, end int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, start, end, parent, op})
	return len(t.spans) - 1
}

// close sets the end of a span that was added before it was over.
func (t *tracer) close(id int, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed duration of its spans
// minus the part their direct children cover (choosing-metrics §4).
// Children of one parent never overlap here except sampled calls made
// by concurrent callers, whose parent is the whole leg; those are
// clipped to the parent so self time cannot go negative.
func (t *tracer) selfTimes() map[string]int64 {
	self := map[string]int64{}
	if t == nil {
		return self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		if c := covered[i]; c < d {
			self[s.name] += d - c
		}
	}
	return self
}

// chromeEvent is the subset of the Chrome trace-event format that
// flightrec.WriteChrome emits; harness spans are appended in the same
// shape so flightrec.ReadChrome reads the merged file back.
type chromeEvent struct {
	Name  string          `json:"name"`
	Phase string          `json:"ph"`
	PID   int             `json:"pid"`
	TID   int             `json:"tid"`
	TS    float64         `json:"ts"`
	Dur   float64         `json:"dur,omitempty"`
	Args  json.RawMessage `json:"args,omitempty"`
}

type chromeFile struct {
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	TraceEvents     []json.RawMessage `json:"traceEvents"`
}

const harnessPID = 2 // after flightrec's parts: 0 client, 1 server

// writeChrome merges the harness spans with the client and server flight
// recorder parts onto one timeline. flightrec.WriteChrome lays out its
// parts and rebases time to their earliest span; the harness spans are
// appended on the same base as a third process.
func (t *tracer) writeChrome(path string, cli, srv []flightrec.Span) error {
	var buf bytes.Buffer
	if err := flightrec.WriteChrome(&buf, flightrec.Part{Name: "client", Spans: cli}, flightrec.Part{Name: "server", Spans: srv}); err != nil {
		return fmt.Errorf("write flight parts: %w", err)
	}
	var file chromeFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		return fmt.Errorf("re-read flight parts: %w", err)
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	base, first := int64(0), true
	for _, part := range [][]flightrec.Span{cli, srv} {
		for _, s := range part {
			if first || s.Start < base {
				base, first = s.Start, false
			}
		}
	}
	if first && len(spans) > 0 {
		base = spans[0].start
	}
	emit := func(ev chromeEvent, args any) error {
		var err error
		if ev.Args, err = json.Marshal(args); err != nil {
			return err
		}
		raw, err := json.Marshal(ev)
		file.TraceEvents = append(file.TraceEvents, raw)
		return err
	}
	if err := emit(chromeEvent{Name: "process_name", Phase: "M", PID: harnessPID}, map[string]string{"name": "harness"}); err != nil {
		return err
	}
	for i, s := range spans {
		err := emit(chromeEvent{
			Name: s.name, Phase: "X", PID: harnessPID,
			TS: float64(s.start-base) / 1e3, Dur: float64(s.end-s.start) / 1e3,
		}, map[string]any{
			// The first five keys are flightrec's span args, so its
			// reader accepts these events; id/parent/op are the harness's.
			"trace": fmt.Sprintf("%016x", s.op), "mode": "", "wire": -1,
			"startNS": s.start - base, "endNS": s.end - base,
			"id": i, "parent": s.parent, "op": s.op,
		})
		if err != nil {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := json.Marshal(file)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
