package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export, the repository's one trace format:
// displayTimeUnit + traceEvents, "X" complete events with µs ts/dur and
// exact nanosecond stamps in args. Each Part becomes one Chrome
// "process" (client, server, ...); stages are rows (tids) within it;
// spans from both sides of one RPC share a trace id in args, which is
// what lets the viewer's flow search line up a request's journey end to
// end.

// Part is one side's contribution to a merged timeline.
type Part struct {
	Name  string
	Spans []Span
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Name  string          `json:"name"`
	Phase string          `json:"ph"`
	PID   int             `json:"pid"`
	TID   int             `json:"tid"`
	TS    float64         `json:"ts"`
	Dur   float64         `json:"dur,omitempty"`
	Args  json.RawMessage `json:"args,omitempty"`
}

type chromeSpanArgs struct {
	Trace   string `json:"trace"` // hex: JSON numbers lose uint64 precision
	Mode    string `json:"mode"`
	Wire    int64  `json:"wire"`
	StartNS int64  `json:"startNS"`
	EndNS   int64  `json:"endNS"`
}

type chromeMetaArgs struct {
	Name string `json:"name"`
}

// WriteChrome merges the parts onto one timeline and writes Chrome
// trace-event JSON. Timestamps are rebased to the earliest span so the
// viewer opens at t=0; spans are emitted in canonical order, making the
// output deterministic for a deterministic span set.
func WriteChrome(w io.Writer, parts ...Part) error {
	base := int64(0)
	first := true
	for _, p := range parts {
		for i := range p.Spans {
			if s := p.Spans[i].Start; first || s < base {
				base, first = s, false
			}
		}
	}
	out := chromeTrace{DisplayTimeUnit: "ns"}
	for pid, p := range parts {
		meta, _ := json.Marshal(chromeMetaArgs{Name: p.Name})
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid, Args: meta,
		})
		spans := append([]Span(nil), p.Spans...)
		SortSpans(spans)
		seen := [numStages]bool{}
		for _, s := range spans {
			if !seen[s.Stage] {
				seen[s.Stage] = true
				tmeta, _ := json.Marshal(chromeMetaArgs{Name: s.Stage.String()})
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: "thread_name", Phase: "M", PID: pid, TID: int(s.Stage), Args: tmeta,
				})
			}
			args, _ := json.Marshal(chromeSpanArgs{
				Trace:   fmt.Sprintf("%016x", s.Trace),
				Mode:    modeName(s.Mode),
				Wire:    s.Wire,
				StartNS: s.Start - base,
				EndNS:   s.End - base,
			})
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name:  s.Stage.String(),
				Phase: "X",
				PID:   pid,
				TID:   int(s.Stage),
				TS:    float64(s.Start-base) / 1e3,
				Dur:   float64(s.End-s.Start) / 1e3,
				Args:  args,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ChromeEvent is one parsed span event from a merged timeline.
type ChromeEvent struct {
	Part  string
	Stage string
	Trace string
	Mode  string
	Start int64
	End   int64
}

// ReadChrome parses a timeline written by WriteChrome back into its
// span events — the validation half of the export round trip (the CI
// smoke job and countload's post-write check both use it).
func ReadChrome(r io.Reader) ([]ChromeEvent, error) {
	var tr chromeTrace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("flightrec: parse chrome trace: %w", err)
	}
	names := map[int]string{}
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "M" && ev.Name == "process_name" {
			var m chromeMetaArgs
			if err := json.Unmarshal(ev.Args, &m); err != nil {
				return nil, fmt.Errorf("flightrec: parse process_name args: %w", err)
			}
			names[ev.PID] = m.Name
		}
	}
	var out []ChromeEvent
	for _, ev := range tr.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		var a chromeSpanArgs
		if err := json.Unmarshal(ev.Args, &a); err != nil {
			return nil, fmt.Errorf("flightrec: parse span args: %w", err)
		}
		out = append(out, ChromeEvent{
			Part:  names[ev.PID],
			Stage: ev.Name,
			Trace: a.Trace,
			Mode:  a.Mode,
			Start: a.StartNS,
			End:   a.EndNS,
		})
	}
	return out, nil
}

// Dump is the black-box artifact: the spans still in the rings, the
// anomaly ledger, and an optional caller-supplied stats delta. The JSON
// encoding is canonical (sorted spans, sorted map keys), so a
// deterministic run dumps identical bytes.
type Dump struct {
	Spans    []Span            `json:"spans"`
	Recorded uint64            `json:"recorded"`
	Dropped  uint64            `json:"dropped"`
	Counts   map[string]uint64 `json:"anomalyCounts"`
	Recent   []Anomaly         `json:"recentAnomalies"`
	Stats    json.RawMessage   `json:"stats,omitempty"`
}

// BuildDump assembles the current black-box state. stats may be nil or
// any JSON value (the server passes its Snapshot).
func (r *Recorder) BuildDump(stats json.RawMessage) Dump {
	counts, recent := r.Anomalies()
	if counts == nil {
		counts = map[string]uint64{}
	}
	spans := r.Snapshot()
	if spans == nil {
		spans = []Span{}
	}
	if recent == nil {
		recent = []Anomaly{}
	}
	return Dump{
		Spans:    spans,
		Recorded: r.Recorded(),
		Dropped:  r.Dropped(),
		Counts:   counts,
		Recent:   recent,
		Stats:    stats,
	}
}

// WriteDump writes the black-box dump as indented JSON.
func (r *Recorder) WriteDump(w io.Writer, stats json.RawMessage) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.BuildDump(stats))
}

func modeName(m uint8) string {
	if m == 1 {
		return "lin"
	}
	return "sc"
}
