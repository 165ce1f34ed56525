package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// sinkSampleTracer mirrors sampleTracer but attaches sink before any
// Rank handle exists, as SetSink requires.
func sinkSampleTracer(sink Sink, queue int) *Tracer {
	tr := NewTracer(2)
	tr.SetSink(sink, queue)
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

func TestNDJSONStreamRoundTripExact(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	tr := sinkSampleTracer(sink, 0)
	if err := tr.CloseSink(); err != nil {
		t.Fatal(err)
	}
	got, procs, dropped, err := ParseNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if procs != 2 {
		t.Fatalf("procs = %d, want 2", procs)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	want := tr.Spans()
	if len(got) != len(want) {
		t.Fatalf("stream kept %d of %d spans", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: stream changed\n%+v to\n%+v", i, want[i], got[i])
		}
	}
}

// The streamed NDJSON spans and the buffered Chrome export of the same
// run must be the same sequence, to the digit — the tentpole's
// correctness bar at the unit level.
func TestStreamMatchesBufferedExport(t *testing.T) {
	var ndjson bytes.Buffer
	tr := sinkSampleTracer(NewNDJSONSink(&ndjson), 0)
	if err := tr.CloseSink(); err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := tr.ExportChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	streamed, sp, sd, err := ParseNDJSON(&ndjson)
	if err != nil {
		t.Fatal(err)
	}
	buffered, bp, bd, err := ParseChromeTraceInfo(chrome.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sp != bp || sd != bd {
		t.Fatalf("stream (procs=%d dropped=%d) disagrees with export (procs=%d dropped=%d)", sp, sd, bp, bd)
	}
	if len(streamed) != len(buffered) {
		t.Fatalf("stream has %d spans, export has %d", len(streamed), len(buffered))
	}
	for i := range buffered {
		if streamed[i] != buffered[i] {
			t.Errorf("span %d: stream %+v, export %+v", i, streamed[i], buffered[i])
		}
	}
}

func TestChromeSinkStreamParses(t *testing.T) {
	var buf bytes.Buffer
	tr := sinkSampleTracer(nil, 0) // buffered only
	cs := NewChromeSink(&buf, tr.Procs())
	for _, s := range tr.Spans() {
		cs.Emit(s.Rank, s)
	}
	cs.ReportDropped(tr.Dropped())
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("streamed chrome trace does not validate: %v", err)
	}
	got, procs, dropped, err := ParseChromeTraceInfo(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if procs != 2 || dropped != 0 {
		t.Fatalf("procs=%d dropped=%d, want 2, 0", procs, dropped)
	}
	want := tr.Spans()
	if len(got) != len(want) {
		t.Fatalf("chrome stream kept %d of %d spans", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d changed: %+v to %+v", i, want[i], got[i])
		}
	}
}

// blockingSink stalls every Emit until released — the pathological slow
// consumer. gate is closed once to unblock all pending and future Emits.
type blockingSink struct {
	gate  chan struct{}
	mu    sync.Mutex
	count int64
}

func (b *blockingSink) Emit(rank int, s Span) {
	<-b.gate
	b.mu.Lock()
	b.count++
	b.mu.Unlock()
}
func (b *blockingSink) Flush() error { return nil }
func (b *blockingSink) Close() error { return nil }

// A sink that never keeps up must not block the emitting rank (the
// simulated clock), must bound buffered memory to the hand-off queue,
// and must account every span: delivered + dropped == emitted, exactly.
func TestSinkBackpressureBoundsAndCounts(t *testing.T) {
	const emitted = 10000
	const queue = 8
	sink := &blockingSink{gate: make(chan struct{})}
	tr := NewTracer(1)
	tr.SetSink(sink, queue)
	r0 := tr.Rank(0)
	// The sink is fully stalled: if offer ever blocked, this loop (the
	// simulated clock's stand-in) would deadlock and the test would time
	// out.
	for i := 0; i < emitted; i++ {
		r0.Emit(Span{Kind: KindCompute, Start: float64(i), Dur: 1})
	}
	if got := tr.Dropped(); got < emitted-queue-1 {
		t.Fatalf("Dropped = %d before drain; want >= %d (queue %d must bound buffering)", got, emitted-queue-1, queue)
	}
	close(sink.gate)
	if err := tr.CloseSink(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	delivered := sink.count
	sink.mu.Unlock()
	dropped := tr.Dropped()
	if delivered+dropped != emitted {
		t.Fatalf("delivered %d + dropped %d != emitted %d", delivered, dropped, emitted)
	}
	if dropped == 0 {
		t.Fatal("expected drops from a stalled sink")
	}
}

// A slow sink attached in blocking mode (ooc-run -trace-stream) sheds
// nothing: emitters wait for queue space, so every span arrives and the
// stream stays exactly reconcilable.
func TestBlockingSinkLosesNothing(t *testing.T) {
	const emitted = 5000
	slow := &blockingSink{gate: make(chan struct{})}
	go func() {
		for i := 0; i < emitted; i++ {
			slow.gate <- struct{}{}
		}
	}()
	tr := NewTracer(1)
	tr.SetSinkBlocking(slow, 2)
	r0 := tr.Rank(0)
	for i := 0; i < emitted; i++ {
		r0.Emit(Span{Kind: KindCompute, Start: float64(i), Dur: 1})
	}
	if err := tr.CloseSink(); err != nil {
		t.Fatal(err)
	}
	slow.mu.Lock()
	delivered := slow.count
	slow.mu.Unlock()
	if delivered != emitted {
		t.Fatalf("blocking sink delivered %d of %d spans", delivered, emitted)
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d on a blocking stream, want 0", got)
	}
}

func TestCloseSinkIdempotentAndShared(t *testing.T) {
	var buf bytes.Buffer
	a := NewTracer(1)
	a.SetSink(NewNDJSONSink(&buf), 0)
	ra := a.Rank(0)
	ra.Emit(Span{Kind: KindCompute, Start: 0, Dur: 1})

	b := NewTracer(1)
	b.AdoptSink(a)
	rb := b.Rank(0)
	rb.Emit(Span{Kind: KindCompute, Start: 1, Dur: 1})

	if err := b.CloseSink(); err != nil {
		t.Fatal(err)
	}
	if err := a.CloseSink(); err != nil {
		t.Fatalf("second CloseSink on shared stream: %v", err)
	}
	if err := b.CloseSink(); err != nil {
		t.Fatalf("repeated CloseSink: %v", err)
	}
	spans, _, dropped, err := ParseNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || dropped != 0 {
		t.Fatalf("shared stream carried %d spans (dropped %d), want 2, 0", len(spans), dropped)
	}
	if spans[0].Start != 0 || spans[1].Start != 1 {
		t.Fatalf("adopting tracer's spans missing from the stream: %+v", spans)
	}

	var none Tracer
	if err := none.CloseSink(); err != nil {
		t.Fatalf("CloseSink without a sink: %v", err)
	}
}

func TestNDJSONTrailerRecordsDrops(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSONSink(&buf)
	s.Emit(0, Span{Kind: KindCompute, Start: 0, Dur: 1})
	s.ReportDropped(3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, dropped, err := ParseNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 {
		t.Fatalf("trailer dropped = %d, want 3", dropped)
	}
}

func TestChromeSinkRecordsDrops(t *testing.T) {
	var buf bytes.Buffer
	cs := NewChromeSink(&buf, 1)
	cs.Emit(0, Span{Kind: KindCompute, Start: 0, Dur: 1})
	cs.ReportDropped(7)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, dropped, err := ParseChromeTraceInfo(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 7 {
		t.Fatalf("dropped_spans = %d, want 7", dropped)
	}
}

func TestParseNDJSONRejectsBadStreams(t *testing.T) {
	afterTrailer := `{"rank":0,"kind":"compute","start_s":0,"dur_s":1}
{"ndjson_trailer":true,"spans":1,"dropped":0}
{"rank":0,"kind":"compute","start_s":1,"dur_s":1}
`
	if _, _, _, err := ParseNDJSON(strings.NewReader(afterTrailer)); err == nil {
		t.Fatal("content after the trailer must be rejected")
	}
	countMismatch := `{"rank":0,"kind":"compute","start_s":0,"dur_s":1}
{"ndjson_trailer":true,"spans":2,"dropped":0}
`
	if _, _, _, err := ParseNDJSON(strings.NewReader(countMismatch)); err == nil {
		t.Fatal("trailer span-count mismatch must be rejected")
	}
	unknownField := `{"rank":0,"kind":"compute","start_s":0,"nope":1}
`
	if _, _, _, err := ParseNDJSON(strings.NewReader(unknownField)); err == nil {
		t.Fatal("unknown span fields must be rejected")
	}
	// A stream cut off mid-run (no trailer) still parses.
	cutOff := `{"rank":0,"kind":"compute","start_s":0,"dur_s":1}
`
	spans, procs, dropped, err := ParseNDJSON(strings.NewReader(cutOff))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || procs != 1 || dropped != 0 {
		t.Fatalf("cut-off stream parsed as %d spans, %d procs, %d dropped", len(spans), procs, dropped)
	}
}
