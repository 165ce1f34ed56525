package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// sampleTracer builds a tracer exercising every span field: durations,
// instants, deferred transfers, peers, flow ids, payload counters and a
// cross-rank emission.
func sampleTracer() *Tracer {
	tr := NewTracer(2)
	r0, r1 := tr.Rank(0), tr.Rank(1)
	r0.Emit(Span{Kind: KindCompute, Start: 0, Dur: 0.5, N: 1000})
	r0.Emit(Span{Kind: KindSlabRead, Label: "a", Start: 0.5, Dur: 0.25, N: 3, Bytes: 4096})
	r0.Emit(Span{Kind: KindReadReq, Label: "a", Start: 0.5, Bytes: 4096})
	r0.Emit(Span{Kind: KindSend, Start: 0.75, Dur: 0.125, Peer: 1, Flow: 0xdeadbeef, Bytes: 64})
	r0.Emit(Span{Kind: KindSlabWrite, Label: "c", Start: 1.0, Dur: 0.0625, Deferred: true, N: 1, Bytes: 512})
	r0.Emit(Span{Kind: KindParityRMW, Label: "c", Start: 1.0, N: 3, M: 2, Bytes: 768, Bytes2: 256})
	r1.Emit(Span{Kind: KindWait, Start: 0, Dur: 0.875, Peer: 0, Flow: 0xdeadbeef})
	r1.Emit(Span{Kind: KindRetry, Label: "b", Start: 0.9, Dur: 0.001953125})
	r1.Emit(Span{Kind: KindCollective, Label: "sum", Start: 0.9})
	r0.Cross(1, Span{Kind: KindRecoveryComm, Start: 1.0, N: 7, Bytes: 3584})
	return tr
}

func TestChromeTraceRoundTripExact(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	got, procs, _, err := ParseChromeTraceInfo(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if procs != 2 {
		t.Fatalf("procs = %d, want 2", procs)
	}
	want := tr.Spans()
	if len(got) != len(want) {
		t.Fatalf("round trip kept %d of %d spans", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: round trip changed\n%+v to\n%+v", i, want[i], got[i])
		}
	}
}

func TestChromeTraceFlowEventsPair(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	starts, finishes := 0, 0
	var id any
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "s":
			starts++
			id = ev["id"]
		case "f":
			finishes++
			if ev["id"] != id {
				t.Errorf("flow finish id %v != start id %v", ev["id"], id)
			}
			if ev["bp"] != "e" {
				t.Errorf("flow finish must bind to the enclosing slice (bp=e), got %v", ev["bp"])
			}
		}
	}
	if starts != 1 || finishes != 1 {
		t.Errorf("flow events: %d starts, %d finishes, want 1 and 1", starts, finishes)
	}
}

func TestChromeTraceMetadataTracks(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" {
			args := ev["args"].(map[string]any)
			names[ev["name"].(string)+":"+args["name"].(string)] = true
		}
	}
	for _, want := range []string{
		"process_name:rank 0", "process_name:rank 1",
		"thread_name:timeline", "thread_name:disk (overlapped)",
	} {
		if !names[want] {
			t.Errorf("missing metadata event %q (have %v)", want, names)
		}
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"no traceEvents":  `{"foo": 1}`,
		"event sans name": `{"traceEvents": [{"ph": "i", "pid": 0, "ts": 0}]}`,
		"bad phase":       `{"traceEvents": [{"ph": "Q", "name": "x", "pid": 0, "ts": 0}]}`,
		"X without dur":   `{"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "ts": 0}]}`,
		"unpaired flow":   `{"traceEvents": [{"ph": "s", "name": "f", "pid": 0, "ts": 0, "id": "1"}]}`,
	}
	for label, doc := range cases {
		if err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validated but should not", label)
		}
	}
}
