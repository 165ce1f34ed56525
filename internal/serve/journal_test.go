package serve

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/iosim"
)

func testJournal(t *testing.T, fs iosim.FS) *journal {
	t.Helper()
	j, err := openJournal(fs)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	return j
}

func mustAppend(t *testing.T, j *journal, rec *walRec) {
	t.Helper()
	if err := j.append(rec); err != nil {
		t.Fatalf("append %s %s: %v", rec.Kind, rec.Job, err)
	}
}

func submitRec(id, tenant, key string) *walRec {
	return &walRec{Kind: recSubmit, Job: id, Tenant: tenant, Key: key,
		Spec: &Request{Tenant: tenant, N: 32, Procs: 4, MemElems: 300}}
}

// segNames returns the journal segment files currently on fs.
func segNames(fs iosim.FS) []string {
	var out []string
	for _, name := range fs.(namer).Names() {
		if _, ok := segIdxOf(name); ok {
			out = append(out, name)
		}
	}
	return out
}

// TestJournalReplayRoundTrip: submits, a dispatch, completions and a
// cancel survive a reopen — the live set comes back in arrival order
// with its attempt numbers, completed jobs are gone, and a keyed
// outcome is retrievable.
func TestJournalReplayRoundTrip(t *testing.T) {
	fs := iosim.NewMemFS()
	j := testJournal(t, fs)
	mustAppend(t, j, submitRec("job-1", "a", "k1"))
	mustAppend(t, j, submitRec("job-2", "b", ""))
	mustAppend(t, j, submitRec("job-3", "a", ""))
	mustAppend(t, j, &walRec{Kind: recDispatch, Job: "job-2", Attempt: 1})
	mustAppend(t, j, &walRec{Kind: recComplete, Job: "job-1", OK: true, Key: "k1",
		Outcome: json.RawMessage(`{"job_id":"job-1"}`)})
	mustAppend(t, j, submitRec("job-4", "c", ""))
	mustAppend(t, j, &walRec{Kind: recCancel, Job: "job-4"})
	j.close()

	re := testJournal(t, fs)
	defer re.close()
	live := re.liveJobs()
	if len(live) != 2 || live[0].ID != "job-2" || live[1].ID != "job-3" {
		t.Fatalf("live jobs = %+v, want job-2, job-3 in order", live)
	}
	if live[0].Attempt != 1 || live[1].Attempt != 0 {
		t.Fatalf("attempts = %d,%d want 1,0", live[0].Attempt, live[1].Attempt)
	}
	if live[0].Spec.Tenant != "b" || live[0].Spec.N != 32 {
		t.Fatalf("job-2 spec not preserved: %+v", live[0].Spec)
	}
	if n := re.jobNum(); n != 4 {
		t.Fatalf("jobNum = %d, want 4", n)
	}
	raw, ok := re.outcome("k1")
	if !ok || !strings.Contains(string(raw), "job-1") {
		t.Fatalf("outcome(k1) = %q, %v", raw, ok)
	}
	if got := re.statsSnapshot(); got.TruncatedTails != 0 {
		t.Fatalf("clean journal reported %d truncated tails", got.TruncatedTails)
	}
}

// corruptTail locates the single live segment and mangles it with f.
func corruptTail(t *testing.T, fs *iosim.MemFS, f func(name string)) {
	t.Helper()
	segs := segNames(fs)
	if len(segs) != 1 {
		t.Fatalf("want exactly one live segment, have %v", segs)
	}
	f(segs[0])
}

// TestJournalTornTailTruncated: garbage appended after the last valid
// record — a torn final write — is dropped at the last valid record,
// counted once, and never surfaces as a parse error.
func TestJournalTornTailTruncated(t *testing.T) {
	fs := iosim.NewMemFS()
	j := testJournal(t, fs)
	mustAppend(t, j, submitRec("job-1", "a", ""))
	mustAppend(t, j, submitRec("job-2", "a", ""))
	off := j.segOff
	j.close()

	corruptTail(t, fs, func(name string) {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		// A frame head that promises more payload than the file holds.
		f.WriteAt([]byte{0, 0, 1, 0, 0xde, 0xad, 0xbe, 0xef, 'x'}, off)
	})

	re := testJournal(t, fs)
	defer re.close()
	if live := re.liveJobs(); len(live) != 2 {
		t.Fatalf("live jobs = %d, want 2 (valid prefix preserved)", len(live))
	}
	if got := re.statsSnapshot().TruncatedTails; got != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", got)
	}
}

// TestJournalCorruptRecordDropsSuffix: a byte flip inside an earlier
// record fails its checksum; that record and everything after it are
// untrusted and dropped, while the prefix survives.
func TestJournalCorruptRecordDropsSuffix(t *testing.T) {
	fs := iosim.NewMemFS()
	j := testJournal(t, fs)
	mustAppend(t, j, submitRec("job-1", "a", ""))
	boundary := j.segOff // start of job-2's frame
	mustAppend(t, j, submitRec("job-2", "a", ""))
	mustAppend(t, j, submitRec("job-3", "a", ""))
	j.close()

	corruptTail(t, fs, func(name string) {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one payload byte of job-2's record.
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, boundary+walFrameHead); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		f.WriteAt(b, boundary+walFrameHead)
	})

	re := testJournal(t, fs)
	defer re.close()
	live := re.liveJobs()
	if len(live) != 1 || live[0].ID != "job-1" {
		t.Fatalf("live jobs = %+v, want only job-1", live)
	}
	if got := re.statsSnapshot().TruncatedTails; got != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", got)
	}
}

// TestJournalRotationCompacts: a tiny rotation threshold compacts on
// every append; the journal stays one segment holding the live state.
func TestJournalRotationCompacts(t *testing.T) {
	fs := iosim.NewMemFS()
	j := testJournal(t, fs)
	j.rotateAt = 1
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		mustAppend(t, j, submitRec(id, "a", ""))
	}
	mustAppend(t, j, &walRec{Kind: recComplete, Job: "job-2", OK: true})
	st := j.statsSnapshot()
	if st.Compactions < 4 { // startup + one per append
		t.Fatalf("Compactions = %d, want >= 4", st.Compactions)
	}
	if segs := segNames(fs); len(segs) != 1 {
		t.Fatalf("segments after rotation = %v, want exactly one", segs)
	}
	j.close()

	re := testJournal(t, fs)
	defer re.close()
	live := re.liveJobs()
	if len(live) != 2 || live[0].ID != "job-1" || live[1].ID != "job-3" {
		t.Fatalf("live after compaction = %+v, want job-1, job-3", live)
	}
}

// TestJournalTornWriteHealedByRetry: a chaos-torn append (half the
// frame reaches the file, transient error) is healed by the retry
// rewriting the same offset; the record is durable and replays.
func TestJournalTornWriteHealedByRetry(t *testing.T) {
	mem := iosim.NewMemFS()
	seg1 := segName(1)
	chaos := iosim.NewChaosFS(mem, iosim.ChaosConfig{Schedule: []iosim.ScheduledFault{
		// Op 0 is the segment create, op 1 the snapshot write; op 2 is
		// the first append.
		{File: seg1, Op: 2, Kind: iosim.KindShortWrite},
	}})
	j := testJournal(t, chaos)
	mustAppend(t, j, submitRec("job-1", "a", ""))
	if got := chaos.Counts().ShortWrites; got != 1 {
		t.Fatalf("short writes injected = %d, want 1", got)
	}
	if st := j.statsSnapshot(); st.Degraded || st.RecordsAppended != 1 {
		t.Fatalf("stats after healed tear = %+v", st)
	}
	j.close()

	re := testJournal(t, mem)
	defer re.close()
	if live := re.liveJobs(); len(live) != 1 || live[0].ID != "job-1" {
		t.Fatalf("live jobs = %+v, want job-1", live)
	}
}

// TestJournalDegradedOnPersistentFault: a permanent write fault marks
// the journal degraded — sticky — and every later append fails with
// ErrDegraded without touching the disk.
func TestJournalDegradedOnPersistentFault(t *testing.T) {
	mem := iosim.NewMemFS()
	chaos := iosim.NewChaosFS(mem, iosim.ChaosConfig{Schedule: []iosim.ScheduledFault{
		{File: segName(1), Op: 2, Kind: iosim.KindPermanent},
	}})
	j := testJournal(t, chaos)
	err := j.append(submitRec("job-1", "a", ""))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("append under permanent fault = %v, want ErrDegraded", err)
	}
	if !j.degraded() {
		t.Fatal("journal not marked degraded")
	}
	if err := j.append(submitRec("job-2", "a", "")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append after degradation = %v, want ErrDegraded", err)
	}
	st := j.statsSnapshot()
	if st.AppendErrors != 1 || st.RecordsAppended != 0 {
		t.Fatalf("stats after degradation = %+v", st)
	}
	j.close()

	// The failed record never became durable: a restart owes nothing.
	re := testJournal(t, mem)
	defer re.close()
	if live := re.liveJobs(); len(live) != 0 {
		t.Fatalf("live jobs after degraded append = %+v, want none", live)
	}
}

// TestJournalTransientFaultRetried: a transient write fault is retried
// under the policy and the append succeeds.
func TestJournalTransientFaultRetried(t *testing.T) {
	mem := iosim.NewMemFS()
	chaos := iosim.NewChaosFS(mem, iosim.ChaosConfig{Schedule: []iosim.ScheduledFault{
		{File: segName(1), Op: 2, Kind: iosim.KindTransient},
		{File: segName(1), Op: 3, Kind: iosim.KindTransient},
	}})
	j := testJournal(t, chaos)
	mustAppend(t, j, submitRec("job-1", "a", ""))
	defer j.close()
	if st := j.statsSnapshot(); st.Degraded || st.RecordsAppended != 1 {
		t.Fatalf("stats after retried transients = %+v", st)
	}
}

// TestJournalFsyncsOnOSFS: on a real file system every durable write is
// fsynced and counted.
func TestJournalFsyncsOnOSFS(t *testing.T) {
	fs, err := iosim.NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := testJournal(t, fs)
	defer j.close()
	mustAppend(t, j, submitRec("job-1", "a", ""))
	st := j.statsSnapshot()
	if st.Fsyncs < 2 { // snapshot + append
		t.Fatalf("Fsyncs = %d, want >= 2", st.Fsyncs)
	}
}

// TestJournalCrashMidCompactionReplaysCleanly: a crash between writing
// the fresh compaction snapshot and deleting the predecessor segment
// leaves both generations on disk. Replaying both is harmless — the
// compact record resets the state — and the live set is not duplicated.
func TestJournalCrashMidCompactionReplaysCleanly(t *testing.T) {
	fs := iosim.NewMemFS()
	j := testJournal(t, fs)
	mustAppend(t, j, submitRec("job-1", "a", ""))
	mustAppend(t, j, submitRec("job-2", "a", ""))
	j.close()

	// Save the pre-compaction segment's bytes.
	stale := segNames(fs)[0]
	f, err := fs.Open(stale)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	n, _ := f.ReadAt(buf, 0)
	content := buf[:n]

	// Reopen compacts into the next segment and deletes the old one;
	// resurrect the old segment as if that deletion never happened.
	j2 := testJournal(t, fs)
	j2.close()
	g, err := fs.Create(stale)
	if err != nil {
		t.Fatal(err)
	}
	g.WriteAt(content, 0)

	re := testJournal(t, fs)
	defer re.close()
	live := re.liveJobs()
	if len(live) != 2 || live[0].ID != "job-1" || live[1].ID != "job-2" {
		t.Fatalf("live after dual-lineage replay = %+v, want job-1, job-2", live)
	}
	if got := re.statsSnapshot().TruncatedTails; got != 0 {
		t.Fatalf("TruncatedTails = %d, want 0", got)
	}
}

// TestJournalOutcomeRetentionBounded: the keyed-outcome store is a
// bounded FIFO; old outcomes are evicted, and the bound survives
// compaction.
func TestJournalOutcomeRetentionBounded(t *testing.T) {
	fs := iosim.NewMemFS()
	j := testJournal(t, fs)
	j.state.maxOutcomes = 2
	for i, key := range []string{"k1", "k2", "k3"} {
		id := string(rune('1' + i))
		mustAppend(t, j, submitRec("job-"+id, "a", key))
		mustAppend(t, j, &walRec{Kind: recComplete, Job: "job-" + id, OK: true, Key: key,
			Outcome: json.RawMessage(`{"job_id":"job-` + id + `"}`)})
	}
	if _, ok := j.outcome("k1"); ok {
		t.Fatal("k1 survived past the retention bound")
	}
	for _, key := range []string{"k2", "k3"} {
		if _, ok := j.outcome(key); !ok {
			t.Fatalf("%s missing from retained outcomes", key)
		}
	}
	// Compact under the lowered bound, so the restart replays only the
	// snapshot it wrote.
	j.mu.Lock()
	if err := j.compactLocked(); err != nil {
		t.Fatal(err)
	}
	j.mu.Unlock()
	j.close()

	re := testJournal(t, fs)
	defer re.close()
	if _, ok := re.outcome("k1"); ok {
		t.Fatal("evicted outcome came back across restart")
	}
	if _, ok := re.outcome("k3"); !ok {
		t.Fatal("retained outcome lost across restart")
	}
}
