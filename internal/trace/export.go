package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The exporter writes the Chrome trace-event JSON object format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// loadable in Perfetto / chrome://tracing. Each rank is a process
// (pid = rank) with two threads: tid 0 carries the synchronous
// timeline, tid 1 the overlapped (deferred) transfers. Matching
// AllToAll send/wait pairs are linked with flow events.
//
// Display timestamps are microseconds of simulated time; because that
// scaling is lossy for float64, every event also carries the exact
// start_s/dur_s in its args, which is what ParseChromeTraceInfo restores —
// so a trace survives export and import bit-for-bit and still
// reconciles with the counters.

const (
	tidTimeline = 0
	tidDeferred = 1
)

type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	BP   string         `json:"bp,omitempty"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type jsonTrace struct {
	TraceEvents []jsonEvent `json:"traceEvents"`
}

func spanEvent(s Span) jsonEvent {
	name := s.Kind.String()
	if s.Label != "" {
		name += " " + s.Label
	}
	tid := tidTimeline
	if s.Deferred {
		tid = tidDeferred
	}
	ev := jsonEvent{
		Name: name,
		Cat:  s.Kind.String(),
		TS:   s.Start * 1e6,
		PID:  s.Rank,
		TID:  tid,
		Args: map[string]any{
			"label":    s.Label,
			"start_s":  s.Start,
			"dur_s":    s.Dur,
			"deferred": s.Deferred,
			"peer":     s.Peer,
			"flow":     fmt.Sprintf("%x", s.Flow),
			"n":        s.N,
			"m":        s.M,
			"bytes":    s.Bytes,
			"bytes2":   s.Bytes2,
		},
	}
	if s.Dur > 0 {
		ev.Ph = "X"
		dur := s.Dur * 1e6
		ev.Dur = &dur
	} else {
		ev.Ph = "i"
		ev.S = "t"
	}
	return ev
}

// ExportChromeTrace writes the whole trace as one JSON object by
// replaying the buffered spans through a streaming ChromeSink — the
// batch export and the live stream share one writer, so they cannot
// drift apart. Spans are emitted rank by rank in emission order, so an
// imported trace preserves the ordered float sums the reconciliation
// depends on. The tracer's drop count is recorded in the dropped_spans
// metadata event (ParseChromeTraceInfo surfaces it).
func (t *Tracer) ExportChromeTrace(w io.Writer) error {
	cs := NewChromeSink(w, t.Procs())
	// Do not adopt w's Closer here: the batch exporter writes into a
	// caller-owned destination.
	cs.c = nil
	for r := 0; r < t.Procs(); r++ {
		for _, s := range t.RankSpans(r) {
			cs.Emit(s.Rank, s)
		}
	}
	cs.ReportDropped(t.Dropped())
	return cs.Close()
}

// ParseChromeTraceInfo restores the spans of an exported trace, per rank
// in emission order (metadata and flow events are skipped; span fields
// come from the exact args payload). It returns the spans, the rank
// count and the trace's recorded drop count, read from the
// dropped_spans metadata event the exporter and ChromeSink write (zero
// when absent — e.g. a foreign trace).
func ParseChromeTraceInfo(data []byte) (spans []Span, procs int, dropped int64, err error) {
	var in jsonTrace
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, 0, 0, fmt.Errorf("trace: parse: %w", err)
	}
	for i, ev := range in.TraceEvents {
		if ev.Ph == "M" && ev.Name == "dropped_spans" {
			count, cerr := argFloat(ev.Args, "count")
			if cerr != nil {
				return nil, 0, 0, fmt.Errorf("trace: event %d: %w", i, cerr)
			}
			dropped = int64(count)
			continue
		}
		if ev.PID+1 > procs {
			procs = ev.PID + 1
		}
		if ev.Ph != "X" && ev.Ph != "i" {
			continue
		}
		if ev.Cat == "flow" {
			continue
		}
		kind, ok := KindFromString(ev.Cat)
		if !ok {
			return nil, 0, 0, fmt.Errorf("trace: event %d: unknown span category %q", i, ev.Cat)
		}
		s := Span{Rank: ev.PID, Kind: kind}
		var err error
		if s.Label, err = argString(ev.Args, "label"); err != nil {
			return nil, 0, 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if s.Start, err = argFloat(ev.Args, "start_s"); err != nil {
			return nil, 0, 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if s.Dur, err = argFloat(ev.Args, "dur_s"); err != nil {
			return nil, 0, 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		s.Deferred = ev.TID == tidDeferred
		peer, err := argFloat(ev.Args, "peer")
		if err != nil {
			return nil, 0, 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		s.Peer = int(peer)
		flow, err := argString(ev.Args, "flow")
		if err != nil {
			return nil, 0, 0, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if _, err := fmt.Sscanf(flow, "%x", &s.Flow); err != nil {
			return nil, 0, 0, fmt.Errorf("trace: event %d: bad flow id %q", i, flow)
		}
		for name, dst := range map[string]*int64{"n": &s.N, "m": &s.M, "bytes": &s.Bytes, "bytes2": &s.Bytes2} {
			v, err := argFloat(ev.Args, name)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("trace: event %d: %w", i, err)
			}
			*dst = int64(v)
		}
		spans = append(spans, s)
	}
	// The exporter writes ranks in order; a foreign but valid trace may
	// interleave them, so restore the per-rank grouping stably.
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Rank < spans[j].Rank })
	return spans, procs, dropped, nil
}

func argString(args map[string]any, key string) (string, error) {
	v, ok := args[key]
	if !ok {
		return "", fmt.Errorf("missing arg %q", key)
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("arg %q is %T, want string", key, v)
	}
	return s, nil
}

func argFloat(args map[string]any, key string) (float64, error) {
	v, ok := args[key]
	if !ok {
		return 0, fmt.Errorf("missing arg %q", key)
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("arg %q is %T, want number", key, v)
	}
	return f, nil
}

// ValidateChromeTrace structurally checks an exported trace against the
// trace-event format: a traceEvents array whose events carry a known
// phase, a name, non-negative timestamps and durations, and whose flow
// events pair up start/finish by id.
func ValidateChromeTrace(data []byte) error {
	var raw struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if raw.TraceEvents == nil {
		return fmt.Errorf("trace: missing traceEvents array")
	}
	flowStarts := map[string]int{}
	flowEnds := map[string]int{}
	for i, ev := range raw.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if name == "" {
			return fmt.Errorf("trace: event %d: missing name", i)
		}
		if _, ok := ev["pid"].(float64); !ok {
			return fmt.Errorf("trace: event %d (%s): missing pid", i, name)
		}
		switch ph {
		case "M":
			// Metadata events carry no timestamp.
		case "X":
			dur, ok := ev["dur"].(float64)
			if !ok || dur < 0 {
				return fmt.Errorf("trace: event %d (%s): complete event needs dur >= 0", i, name)
			}
			fallthrough
		case "i", "s", "f":
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				return fmt.Errorf("trace: event %d (%s): needs ts >= 0", i, name)
			}
			if _, ok := ev["tid"].(float64); !ok {
				return fmt.Errorf("trace: event %d (%s): missing tid", i, name)
			}
			if ph == "s" || ph == "f" {
				id, _ := ev["id"].(string)
				if id == "" {
					return fmt.Errorf("trace: event %d (%s): flow event needs an id", i, name)
				}
				if ph == "s" {
					flowStarts[id]++
				} else {
					flowEnds[id]++
				}
			}
		default:
			return fmt.Errorf("trace: event %d (%s): unknown phase %q", i, name, ph)
		}
	}
	for id, n := range flowStarts {
		if flowEnds[id] != n {
			return fmt.Errorf("trace: flow %s has %d starts but %d finishes", id, n, flowEnds[id])
		}
	}
	for id, n := range flowEnds {
		if flowStarts[id] != n {
			return fmt.Errorf("trace: flow %s has %d finishes but %d starts", id, n, flowStarts[id])
		}
	}
	return nil
}
