package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/trace"
)

// TestJobTraceStreamMatchesResponseTrace is the serve-level exactness
// check: the NDJSON span stream retained for a traced job must carry
// the same span sequence as the buffered Chrome trace in the job's own
// response.
func TestJobTraceStreamMatchesResponseTrace(t *testing.T) {
	s := mustOpen(t, Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := s.Submit(context.Background(), Request{N: 32, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Trace) == 0 {
		t.Fatal("traced job returned no trace artifact")
	}
	buffered, procs, bdropped, err := trace.ParseChromeTraceInfo(resp.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if bdropped != 0 {
		t.Fatalf("buffered trace records %d drops", bdropped)
	}

	// The finished stream is retained: a late subscriber still gets the
	// whole backlog.
	hr, err := http.Get(ts.URL + "/jobs/" + resp.JobID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d: %s", hr.StatusCode, body)
	}
	if got := hr.Header.Get("Content-Type"); got != "application/x-ndjson; charset=utf-8" {
		t.Errorf("trace Content-Type = %q", got)
	}
	if got := hr.Header.Get("X-Stream-Complete"); got != "true" {
		t.Errorf("X-Stream-Complete = %q, want true", got)
	}
	streamed, sprocs, sdropped, err := trace.ParseNDJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if sprocs != procs || sdropped != 0 {
		t.Fatalf("stream procs=%d dropped=%d, want %d, 0", sprocs, sdropped, procs)
	}
	if len(streamed) != len(buffered) {
		t.Fatalf("stream carries %d spans, response trace %d", len(streamed), len(buffered))
	}
	for i := range buffered {
		if streamed[i] != buffered[i] {
			t.Fatalf("span %d differs:\nstream %+v\nbuffered %+v", i, streamed[i], buffered[i])
		}
	}

	// The listing surfaces the retained stream.
	lr, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []JobStreamInfo `json:"jobs"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	found := false
	for _, ji := range listing.Jobs {
		if ji.ID == resp.JobID {
			found = true
			if ji.Live {
				t.Errorf("finished job %s still listed live", ji.ID)
			}
		}
	}
	if !found {
		t.Fatalf("job %s missing from GET /jobs listing %+v", resp.JobID, listing.Jobs)
	}
}

// TestJobTraceFollowSSE drives the ?follow=1 surface: SSE frames carry
// the NDJSON lines, and the stream terminates with an end event once
// the job is done.
func TestJobTraceFollowSSE(t *testing.T) {
	s := mustOpen(t, Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := s.Submit(context.Background(), Request{N: 32, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Get(ts.URL + "/jobs/" + resp.JobID + "/trace?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if got := hr.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Errorf("follow Content-Type = %q", got)
	}
	var ndjson bytes.Buffer
	sawEnd := false
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: end" {
			sawEnd = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && !sawEnd {
			ndjson.WriteString(data)
			ndjson.WriteString("\n")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawEnd {
		t.Fatal("follow stream did not terminate with an end event")
	}
	streamed, _, dropped, err := trace.ParseNDJSON(&ndjson)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("follow stream reports %d drops", dropped)
	}
	buffered, _, _, err := trace.ParseChromeTraceInfo(resp.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(buffered) {
		t.Fatalf("follow stream carries %d spans, response trace %d", len(streamed), len(buffered))
	}
	for i := range buffered {
		if streamed[i] != buffered[i] {
			t.Fatalf("span %d differs between follow stream and response trace", i)
		}
	}
}

func TestJobTraceUnknownJob(t *testing.T) {
	s := mustOpen(t, Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hr, err := http.Get(ts.URL + "/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d, want 404", hr.StatusCode)
	}
}

// TestJobStreamFollowBlocksUntilAppend pins the cond-var hand-off: a
// follower parked on next() wakes for new lines and for completion.
func TestJobStreamFollowBlocksUntilAppend(t *testing.T) {
	st := newJobStream()
	got := make(chan []byte, 1)
	go func() {
		line, _ := st.next(context.Background(), 0)
		got <- line
	}()
	time.Sleep(10 * time.Millisecond)
	st.append([]byte("hello"), false)
	select {
	case line := <-got:
		if string(line) != "hello" {
			t.Fatalf("follower got %q", line)
		}
	case <-time.After(time.Second):
		t.Fatal("follower never woke for the appended line")
	}

	done := make(chan struct{})
	go func() {
		if line, _ := st.next(context.Background(), 1); line != nil {
			t.Errorf("follower got %q after finish", line)
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	st.finish()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("follower never woke for finish")
	}

	// A cancelled context also unparks the follower.
	ctx, cancel := context.WithCancel(context.Background())
	st2 := newJobStream()
	done2 := make(chan struct{})
	go func() {
		st2.next(ctx, 0)
		close(done2)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done2:
	case <-time.After(time.Second):
		t.Fatal("follower never woke for context cancellation")
	}
}

// TestStreamRetentionCapsLines pins the memory bound: a stream past
// maxStreamLines drops lines (counted honestly in the trailer) instead
// of growing without bound.
func TestStreamRetentionCapsLines(t *testing.T) {
	st := newJobStream()
	sink := &streamSink{st: st}
	for i := 0; i < maxStreamLines+100; i++ {
		sink.Emit(0, trace.Span{Kind: trace.KindCompute, Start: float64(i), Dur: 1})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines, done := st.snapshot()
	if !done {
		t.Fatal("stream not finished after Close")
	}
	if len(lines) != maxStreamLines+1 { // +1 trailer
		t.Fatalf("stream retained %d lines, want %d", len(lines), maxStreamLines+1)
	}
	var tr trace.StreamTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Trailer || tr.Spans != maxStreamLines || tr.Dropped != 100 {
		t.Fatalf("trailer %+v, want spans=%d dropped=100", tr, maxStreamLines)
	}
}
