package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/iosim"
)

// crashReq is the resumable spec the crash matrix revolves around:
// column-slab GAXPY commits a checkpoint epoch every SumStore iteration,
// so a mid-run crash always finds state to resume.
func crashReq(key string) Request {
	return Request{N: 32, Procs: 4, MemElems: 300, Force: "column-slab",
		Checkpoint: 1, IdempotencyKey: key}
}

// TestCrashRestartMatrix drives the seeded service-level chaos harness
// through every CrashSpec injection point: the simulated process death
// leaves the submitter with an ambiguous failure, a fresh Open over the
// same journal replays the owed work, and a retried submit under the
// same idempotency key lands on final statistics bitwise identical to
// an uninterrupted run — resumed from exec checkpoints where the spec
// allows it, deduplicated from the retained outcome where the job had
// already completed. The reference is a direct exec.Run of the spec, so
// the oracle shares no code with the server under test.
func TestCrashRestartMatrix(t *testing.T) {
	want := directSnapshot(t, crashReq(""))

	points := []struct {
		point string
		n     int64
	}{
		{CrashSubmit, 1},
		{CrashDispatch, 1},
		{CrashMidrun, 2}, // the second committed checkpoint epoch
		{CrashComplete, 1},
	}
	for _, p := range points {
		t.Run(p.point, func(t *testing.T) {
			fs := iosim.NewMemFS()
			key := "crash-" + p.point
			s := mustOpen(t, Config{Workers: 1,
				Journal: &JournalConfig{FS: fs},
				Crash:   &CrashSpec{Point: p.point, N: p.n}})
			if _, serr := s.Submit(context.Background(), crashReq(key)); serr == nil {
				t.Fatal("submit to a crashing server reported success")
			}
			s.Close()

			re := mustOpen(t, Config{Workers: 1, Journal: &JournalConfig{FS: fs}})
			defer re.Close()
			resp, err := re.Submit(context.Background(), crashReq(key))
			if err != nil {
				t.Fatalf("retried submit after restart: %v", err)
			}
			if got := mustJSON(t, resp.Stats); !bytes.Equal(got, want) {
				t.Errorf("stats diverged from the uninterrupted run\n got %s\nwant %s", got, want)
			}
			if !resp.Deduplicated {
				t.Error("retried submit was not deduplicated against the journaled job")
			}
			m := re.MetricsSnapshot()
			if p.point == CrashComplete {
				// The job completed durably before the "death": nothing
				// replays; the retained outcome answers the retry.
				if m.Journal.ReplayedJobs != 0 {
					t.Errorf("ReplayedJobs = %d, want 0", m.Journal.ReplayedJobs)
				}
				return
			}
			if m.Journal.ReplayedJobs < 1 {
				t.Errorf("ReplayedJobs = %d, want >= 1", m.Journal.ReplayedJobs)
			}
			if p.point == CrashMidrun {
				if !resp.Resumed {
					t.Error("midrun-crashed job did not resume from its checkpoint")
				}
				if m.Journal.ResumedJobs < 1 {
					t.Errorf("ResumedJobs = %d, want >= 1", m.Journal.ResumedJobs)
				}
			}
		})
	}
}

// TestCrashRestartNonResumableReruns: a RUNNING job whose spec is not
// resumable (no checkpoints) reruns from scratch after the crash and
// still reports stats bitwise identical to an uninterrupted run.
func TestCrashRestartNonResumableReruns(t *testing.T) {
	req := Request{N: 32, Procs: 4, MemElems: 300, IdempotencyKey: "nr"}
	fs := iosim.NewMemFS()
	s := mustOpen(t, Config{Workers: 1, Journal: &JournalConfig{FS: fs},
		Crash: &CrashSpec{Point: CrashDispatch, N: 1}})
	if _, serr := s.Submit(context.Background(), req); serr == nil {
		t.Fatal("submit to a crashing server reported success")
	}
	s.Close()

	re := mustOpen(t, Config{Workers: 1, Journal: &JournalConfig{FS: fs}})
	defer re.Close()
	resp, err := re.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Resumed {
		t.Error("non-resumable job claims a checkpoint resume")
	}
	if got, want := mustJSON(t, resp.Stats), directSnapshot(t, req); !bytes.Equal(got, want) {
		t.Errorf("rerun stats diverged\n got %s\nwant %s", got, want)
	}
}

// TestReservationReleasedOnPickupCancel drives a cancellation exactly
// into the window between a worker's budget reservation and the job
// pickup: the footprint must come straight back and no dispatch record
// may be journaled for the dead job.
func TestReservationReleasedOnPickupCancel(t *testing.T) {
	fs := iosim.NewMemFS()
	s := mustOpen(t, Config{Workers: 1, Journal: &JournalConfig{FS: fs}})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	s.pickupGate = func(*job) { cancel() }

	_, err := s.Submit(ctx, Request{N: 32, Procs: 4, MemElems: 300})
	if err == nil {
		t.Fatal("cancelled submit reported success")
	}
	// The submitter may observe its own context error before the worker
	// finishes the discard; wait for the worker to drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := s.MetricsSnapshot()
		if m.Inflight == 0 && m.QueueDepth == 0 {
			if m.ReservedBytes != 0 {
				t.Fatalf("reservation leaked: %d bytes still charged", m.ReservedBytes)
			}
			if m.Completed != 0 {
				t.Fatalf("cancelled job ran to completion")
			}
			// submit + cancel, but no dispatch record for the dead job.
			if m.Journal.RecordsAppended != 2 {
				t.Fatalf("RecordsAppended = %d, want 2 (submit+cancel)", m.Journal.RecordsAppended)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never drained: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWeightedFairShareDispatch pins the weighted dispatch order: with
// weights a=2, b=1, tenant a receives two of every three slots while b
// still cannot be starved.
func TestWeightedFairShareDispatch(t *testing.T) {
	s := idleServer(t, map[string]int{"a": 2, "b": 1})
	jobs := []*job{idleJob("a", "a1"), idleJob("a", "a2"), idleJob("a", "a3"), idleJob("a", "a4"), idleJob("b", "b1"), idleJob("b", "b2")}
	for _, j := range jobs {
		if _, _, err := s.enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for range jobs {
		order = append(order, s.next().id)
	}
	got := ""
	for i, id := range order {
		if i > 0 {
			got += " "
		}
		got += id
	}
	if want := "a1 b1 a2 a3 b2 a4"; got != want {
		t.Errorf("weighted dispatch order %q, want %q", got, want)
	}
}

// TestTenantWeightFromRequest: a submit carrying TenantWeight updates
// the tenant's share for subsequent dispatch rounds.
func TestTenantWeightFromRequest(t *testing.T) {
	s := mustOpen(t, Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(context.Background(),
		Request{Tenant: "heavy", TenantWeight: 3, N: 32, Procs: 4, MemElems: 300}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	w := s.weightOf("heavy")
	s.mu.Unlock()
	if w != 3 {
		t.Fatalf("weightOf(heavy) = %d, want 3", w)
	}
}

// seedLiveJobs writes n submit records straight through the journal
// API, as if a previous server life accepted them and died.
func seedLiveJobs(t *testing.T, fs iosim.FS, n int) {
	t.Helper()
	j := testJournal(t, fs)
	for i := 1; i <= n; i++ {
		mustAppend(t, j, submitRec(fmt.Sprintf("job-%d", i), "a", ""))
	}
	j.close()
}

// TestCloseDuringReplayKeepsJobsDurable: SIGTERM right after startup —
// Close racing the freshly replayed queue — must lose nothing: every
// seeded job is either completed durably or still owed to the next
// restart. Orphaned replayed jobs are NOT cancelled in the journal
// (they have no submitter to have seen a rejection).
func TestCloseDuringReplayKeepsJobsDurable(t *testing.T) {
	const n = 3
	fs := iosim.NewMemFS()
	seedLiveJobs(t, fs, n)

	s := mustOpen(t, Config{Workers: 1, Journal: &JournalConfig{FS: fs}})
	s.Close()
	completed := s.MetricsSnapshot().Completed

	re := mustOpen(t, Config{Workers: 1, Journal: &JournalConfig{FS: fs}})
	replayed := re.MetricsSnapshot().Journal.ReplayedJobs
	if completed+replayed != n {
		t.Fatalf("jobs lost across early close: completed %d + replayed %d != %d",
			completed, replayed, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := re.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := re.MetricsSnapshot().Completed; got != replayed {
		t.Fatalf("drained server completed %d of %d replayed jobs", got, replayed)
	}

	// After the drain everything is done: a third life owes nothing.
	last := mustOpen(t, Config{Workers: 1, Journal: &JournalConfig{FS: fs}})
	defer last.Close()
	if got := last.MetricsSnapshot().Journal.ReplayedJobs; got != 0 {
		t.Fatalf("drained journal still replays %d jobs", got)
	}
}

// TestDrainCloseSubmitRace exercises Drain, Close and concurrent
// submits (with and without idempotency keys) against a journaled
// server under the race detector; afterwards the journal must reopen
// cleanly.
func TestDrainCloseSubmitRace(t *testing.T) {
	fs := iosim.NewMemFS()
	s := mustOpen(t, Config{Workers: 2, Journal: &JournalConfig{FS: fs}})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{N: 32, Procs: 4, MemElems: 300}
			if i%2 == 0 {
				req.IdempotencyKey = fmt.Sprintf("race-%d", i%4)
			}
			// Rejections (draining) and successes are both legal here;
			// the invariant under test is no race and a clean journal.
			s.Submit(context.Background(), req) //nolint:errcheck
		}(i)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	}()
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		s.Close()
	}()
	wg.Wait()
	s.Close() // idempotent

	re := mustOpen(t, Config{Workers: 1, Journal: &JournalConfig{FS: fs}})
	re.Close()
}

// TestDegradedModeServesReads: when the journal disk goes permanently
// bad, new submits are refused with ErrDegraded while metrics, health
// and retained idempotent outcomes keep being served.
func TestDegradedModeServesReads(t *testing.T) {
	mem := iosim.NewMemFS()
	// Let startup and the first job's records through, then fail the
	// segment permanently: ops 0-1 are create+snapshot, 2-3 the first
	// job's submit+dispatch, 4 its completion; op 5 — the next submit —
	// hits the dead disk.
	chaos := iosim.NewChaosFS(mem, iosim.ChaosConfig{Schedule: []iosim.ScheduledFault{
		{File: segName(1), Op: 5, Kind: iosim.KindPermanent},
	}})
	s := mustOpen(t, Config{Workers: 1, Journal: &JournalConfig{FS: chaos, WorkFS: iosim.NewMemFS()}})
	defer s.Close()

	first, err := s.Submit(context.Background(), Request{N: 32, Procs: 4, MemElems: 300, IdempotencyKey: "deg"})
	if err != nil {
		t.Fatalf("healthy submit: %v", err)
	}
	if _, err := s.Submit(context.Background(), Request{N: 32, Procs: 4, MemElems: 300}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("submit on dead journal disk = %v, want ErrDegraded", err)
	}
	if !s.Degraded() {
		t.Fatal("server not in degraded mode")
	}
	// Reads still work: metrics report the degradation...
	m := s.MetricsSnapshot()
	if !m.Degraded || m.Journal.AppendErrors < 1 {
		t.Fatalf("metrics do not report degradation: %+v", m.Journal)
	}
	// ...and the retained outcome still answers a retried submit.
	resp, err := s.Submit(context.Background(), Request{N: 32, Procs: 4, MemElems: 300, IdempotencyKey: "deg"})
	if err != nil {
		t.Fatalf("idempotent replay in degraded mode: %v", err)
	}
	if !resp.Deduplicated || !bytes.Equal(mustJSON(t, resp.Stats), mustJSON(t, first.Stats)) {
		t.Fatal("degraded-mode replay did not return the retained outcome")
	}
}

// TestInMemoryServerHonoursIdempotencyKeys: a server opened without a
// JournalConfig still journals (in memory), so a retried keyed submit is
// answered from the retained outcome, and the journal counters reach
// both metrics surfaces.
func TestInMemoryServerHonoursIdempotencyKeys(t *testing.T) {
	s := mustOpen(t, Config{Workers: 1})
	defer s.Close()
	req := Request{N: 32, Procs: 4, MemElems: 300, IdempotencyKey: "mem"}
	first, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	retry, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Deduplicated || !retry.Deduplicated {
		t.Fatalf("Deduplicated first=%v retry=%v, want false then true", first.Deduplicated, retry.Deduplicated)
	}
	if got, want := mustJSON(t, retry.Stats), mustJSON(t, first.Stats); !bytes.Equal(got, want) {
		t.Errorf("deduplicated stats differ\n got %s\nwant %s", got, want)
	}
	m := s.MetricsSnapshot()
	if m.Completed != 1 || m.Deduplicated != 1 {
		t.Errorf("completed=%d deduplicated=%d, want 1 and 1", m.Completed, m.Deduplicated)
	}
	// submit + dispatch + complete of the one execution.
	if m.Journal.RecordsAppended != 3 {
		t.Errorf("Journal.RecordsAppended = %d, want 3", m.Journal.RecordsAppended)
	}
	var prom bytes.Buffer
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(prom.Bytes(), []byte("\npassion_serve_journal_records_total 3\n")) {
		t.Errorf("Prometheus exposition lacks the journal record counter:\n%s", prom.Bytes())
	}
}

// TestIdempotentSubmitAttachesInFlight: two concurrent submits under
// one key execute once; the second rides along and is marked
// deduplicated.
func TestIdempotentSubmitAttachesInFlight(t *testing.T) {
	fs := iosim.NewMemFS()
	s := mustOpen(t, Config{Workers: 1, Journal: &JournalConfig{FS: fs}})
	defer s.Close()

	req := Request{N: 32, Procs: 4, MemElems: 300, IdempotencyKey: "pair"}
	type outcome struct {
		resp *Response
		err  error
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := s.Submit(context.Background(), req)
			results <- outcome{resp, err}
		}()
	}
	var dedup, fresh int
	var stats [][]byte
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.resp.Deduplicated {
			dedup++
		} else {
			fresh++
		}
		stats = append(stats, mustJSON(t, o.resp.Stats))
	}
	if fresh != 1 || dedup != 1 {
		t.Fatalf("fresh=%d dedup=%d, want exactly one execution", fresh, dedup)
	}
	if !bytes.Equal(stats[0], stats[1]) {
		t.Fatal("deduplicated response differs from the executed one")
	}
	if m := s.MetricsSnapshot(); m.Completed != 1 || m.Deduplicated != 1 {
		t.Fatalf("completed=%d deduplicated=%d, want 1 and 1", m.Completed, m.Deduplicated)
	}
}

// TestWorkStoreSweptAfterCompletion: a resumable job's durable attempt
// namespace is removed once the job completes, and nothing but journal
// segments stays behind.
func TestWorkStoreSweptAfterCompletion(t *testing.T) {
	fs := iosim.NewMemFS()
	s := mustOpen(t, Config{Workers: 1, Journal: &JournalConfig{FS: fs}})
	defer s.Close()
	if _, err := s.Submit(context.Background(), crashReq("")); err != nil {
		t.Fatal(err)
	}
	for _, name := range fs.Names() {
		if _, ok := segIdxOf(name); !ok {
			t.Errorf("leftover work-store file %q after completion", name)
		}
	}
}
