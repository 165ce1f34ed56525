package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ooc-hpf/passion/internal/iosim"
)

// The write-ahead job journal makes the queue and the in-flight set
// durable: every state transition of a job — submitted, dispatched,
// completed, cancelled — is appended as a checksummed record and fsynced
// before the transition takes effect, so a restarted server can rebuild
// exactly the work it owed at crash time (DESIGN §14).
//
// Format: segment files named wal-%08d.seg, each starting with the magic
// "OOCWAL1\n" followed by length-prefixed records:
//
//	[4B big-endian payload length][4B big-endian CRC32(payload)][JSON payload]
//
// Appends go to the newest segment only. Replay scans segments in index
// order and stops a segment at the first frame that is torn (short) or
// fails its checksum — everything after a corrupt record is untrusted,
// and the startup compaction rewrites the surviving state into a fresh
// segment, so a torn tail is truncated exactly once and never reparsed.
// Startup and size-triggered rotation both compact: the full live state
// is written as one snapshot record into a brand-new segment and the old
// segments are deleted, which keeps the journal bounded by the live job
// set (completed jobs survive only as bounded idempotency outcomes).

// walMagic heads every journal segment.
const walMagic = "OOCWAL1\n"

// walFrameHead is the bytes of one record's length+checksum header.
const walFrameHead = 8

// A live segment of walRotateBytes triggers a compacting rotation, and
// the idempotency outcome store retains the walMaxOutcomes newest keys.
const (
	walRotateBytes = 1 << 20
	walMaxOutcomes = 256
)

// record kinds.
const (
	recSubmit   = "submit"
	recDispatch = "dispatch"
	recComplete = "complete"
	recCancel   = "cancel"
	recCompact  = "compact"
)

// walRec is one journal record. Kind selects which fields are
// meaningful.
type walRec struct {
	Kind   string `json:"kind"`
	Job    string `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// Key is the client's idempotency key (submit; echoed on complete).
	Key string `json:"key,omitempty"`
	// Weight is the tenant's fair-share weight as of this submit.
	Weight int `json:"weight,omitempty"`
	// Spec is the canonical (defaults-resolved) job spec.
	Spec *Request `json:"spec,omitempty"`
	// Fingerprint is the compiled plan's identity; a restart re-admits
	// the job only into the same plan.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Attempt is the execution attempt namespace (dispatch).
	Attempt int `json:"attempt,omitempty"`
	// OK, Outcome and Error report completion: a successful outcome is
	// the response body (minus the trace artifact) kept for idempotent
	// replay to retried submitters.
	OK      bool            `json:"ok,omitempty"`
	Outcome json.RawMessage `json:"outcome,omitempty"`
	Error   string          `json:"error,omitempty"`
	// Snapshot resets the replay state (compact records).
	Snapshot *walSnapshot `json:"snapshot,omitempty"`
}

// walJob is one live (queued or running) job in the replay state.
type walJob struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	Key         string  `json:"key,omitempty"`
	Spec        Request `json:"spec"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	// Attempt is 0 until the job is dispatched; a nonzero attempt at
	// replay time means the job was RUNNING when the server died.
	Attempt int `json:"attempt,omitempty"`
}

// walOutcome is one retained completed outcome, keyed for idempotent
// submit replay.
type walOutcome struct {
	Key      string          `json:"key"`
	Response json.RawMessage `json:"response"`
}

// walSnapshot is the full replay state a compact record carries.
type walSnapshot struct {
	JobNum   int64          `json:"job_num"`
	Jobs     []*walJob      `json:"jobs,omitempty"`
	Outcomes []*walOutcome  `json:"outcomes,omitempty"`
	Weights  map[string]int `json:"weights,omitempty"`
}

// walState is the incrementally maintained replay state: the same apply
// step consumes live appends and replayed records, so compaction always
// has an up-to-date snapshot at hand.
type walState struct {
	jobNum       int64
	jobs         []*walJob // arrival order
	byID         map[string]*walJob
	outcomes     map[string]json.RawMessage
	outcomeOrder []string
	maxOutcomes  int
	weights      map[string]int
}

func newWALState(maxOutcomes int) *walState {
	return &walState{
		byID:        make(map[string]*walJob),
		outcomes:    make(map[string]json.RawMessage),
		maxOutcomes: maxOutcomes,
		weights:     make(map[string]int),
	}
}

// jobNumOf extracts the sequence number from a "job-%d" id (0 if the id
// has another shape).
func jobNumOf(id string) int64 {
	var n int64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

func (st *walState) apply(rec *walRec) {
	switch rec.Kind {
	case recSubmit:
		if rec.Job == "" || st.byID[rec.Job] != nil {
			return
		}
		jb := &walJob{ID: rec.Job, Tenant: rec.Tenant, Key: rec.Key, Fingerprint: rec.Fingerprint}
		if rec.Spec != nil {
			jb.Spec = *rec.Spec
		}
		st.jobs = append(st.jobs, jb)
		st.byID[jb.ID] = jb
		if n := jobNumOf(jb.ID); n > st.jobNum {
			st.jobNum = n
		}
		if rec.Weight > 0 {
			st.weights[rec.Tenant] = rec.Weight
		}
	case recDispatch:
		if jb := st.byID[rec.Job]; jb != nil {
			jb.Attempt = rec.Attempt
		}
	case recComplete:
		st.remove(rec.Job)
		if rec.OK && rec.Key != "" && rec.Outcome != nil {
			st.addOutcome(rec.Key, rec.Outcome)
		}
	case recCancel:
		st.remove(rec.Job)
	case recCompact:
		if rec.Snapshot == nil {
			return
		}
		fresh := newWALState(st.maxOutcomes)
		fresh.jobNum = rec.Snapshot.JobNum
		for _, jb := range rec.Snapshot.Jobs {
			fresh.jobs = append(fresh.jobs, jb)
			fresh.byID[jb.ID] = jb
		}
		for _, o := range rec.Snapshot.Outcomes {
			fresh.addOutcome(o.Key, o.Response)
		}
		for t, w := range rec.Snapshot.Weights {
			fresh.weights[t] = w
		}
		*st = *fresh
	}
}

func (st *walState) remove(id string) {
	if st.byID[id] == nil {
		return
	}
	delete(st.byID, id)
	for i, jb := range st.jobs {
		if jb.ID == id {
			st.jobs = append(st.jobs[:i], st.jobs[i+1:]...)
			break
		}
	}
}

func (st *walState) addOutcome(key string, resp json.RawMessage) {
	if _, ok := st.outcomes[key]; !ok {
		st.outcomeOrder = append(st.outcomeOrder, key)
	}
	st.outcomes[key] = resp
	for len(st.outcomeOrder) > st.maxOutcomes {
		evict := st.outcomeOrder[0]
		st.outcomeOrder = st.outcomeOrder[1:]
		delete(st.outcomes, evict)
	}
}

func (st *walState) snapshot() *walSnapshot {
	snap := &walSnapshot{JobNum: st.jobNum}
	for _, jb := range st.jobs {
		cp := *jb
		snap.Jobs = append(snap.Jobs, &cp)
	}
	for _, key := range st.outcomeOrder {
		snap.Outcomes = append(snap.Outcomes, &walOutcome{Key: key, Response: st.outcomes[key]})
	}
	if len(st.weights) > 0 {
		snap.Weights = make(map[string]int, len(st.weights))
		for t, w := range st.weights {
			snap.Weights[t] = w
		}
	}
	return snap
}

// JournalStats are the journal's observable counters, exposed under
// /metrics as Metrics.Journal.
type JournalStats struct {
	// RecordsAppended counts records durably appended this process
	// lifetime; Fsyncs counts the sync calls that made them durable
	// (zero on backing stores without a sync primitive, e.g. MemFS).
	RecordsAppended int64 `json:"records_appended"`
	Fsyncs          int64 `json:"fsyncs"`
	// ReplayedJobs counts jobs re-admitted from the journal at startup;
	// ResumedJobs counts the subset that resumed from an exec
	// checkpoint instead of rerunning from scratch.
	ReplayedJobs int64 `json:"replayed_jobs"`
	ResumedJobs  int64 `json:"resumed_jobs"`
	// TruncatedTails counts torn or corrupt segment tails dropped at
	// replay (at most one per segment: nothing after a bad frame is
	// trusted).
	TruncatedTails int64 `json:"truncated_tail_records"`
	// Bytes is the current size of the live segment; Compactions counts
	// snapshot rewrites (startup replay and size-triggered rotation).
	Bytes        int64 `json:"journal_bytes"`
	Compactions  int64 `json:"compactions"`
	AppendErrors int64 `json:"append_errors"`
	// Degraded reports that the journal gave up on a faulty disk: the
	// server serves reads but refuses new writes with 503.
	Degraded bool `json:"degraded"`
}

// journal is the write-ahead log. All methods are safe for concurrent
// use.
type journal struct {
	mu       sync.Mutex
	fs       iosim.FS
	seg      iosim.File
	segIdx   int
	segOff   int64
	rotateAt int64
	dead     bool // no further appends (degraded or crash-simulated)
	stats    JournalStats
	state    *walState
}

func segName(idx int) string { return fmt.Sprintf("wal-%08d.seg", idx) }

// segIdxOf parses a segment index from a name; ok is false for
// non-segment files.
func segIdxOf(name string) (int, bool) {
	var idx int
	if _, err := fmt.Sscanf(name, "wal-%d.seg", &idx); err != nil || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	return idx, true
}

// namer is the FS enumeration capability the journal requires.
type namer interface{ Names() []string }

// openJournal replays any existing journal under fs, then compacts the
// surviving state into a fresh segment (old segments, including any torn
// tails, are deleted). The journal never appends to a reopened file: the
// compaction rewrite is the only way records cross a restart.
func openJournal(fs iosim.FS) (*journal, error) {
	nm, ok := fs.(namer)
	if !ok {
		return nil, fmt.Errorf("serve: journal store %T cannot enumerate segments", fs)
	}
	j := &journal{fs: fs, rotateAt: walRotateBytes, state: newWALState(walMaxOutcomes)}

	var segs []int
	for _, name := range nm.Names() {
		if idx, ok := segIdxOf(name); ok {
			segs = append(segs, idx)
		}
	}
	sort.Ints(segs)
	for _, idx := range segs {
		j.scanSegment(segName(idx))
	}
	maxIdx := 0
	if len(segs) > 0 {
		maxIdx = segs[len(segs)-1]
	}
	j.segIdx = maxIdx
	if err := j.compactLocked(); err != nil {
		return nil, err
	}
	// The old segments' state now lives in the fresh segment's snapshot.
	for _, idx := range segs {
		fs.Remove(segName(idx))
	}
	return j, nil
}

// scanSegment replays one segment into the state, stopping at the first
// torn or corrupt frame (counted as one truncated tail). It never
// returns an error: an unreadable segment simply contributes nothing.
func (j *journal) scanSegment(name string) {
	f, err := j.fs.Open(name)
	if err != nil {
		j.stats.TruncatedTails++
		return
	}
	defer f.Close()
	head := make([]byte, len(walMagic))
	if n, _ := f.ReadAt(head, 0); n != len(head) || string(head) != walMagic {
		j.stats.TruncatedTails++
		return
	}
	off := int64(len(walMagic))
	for {
		fh := make([]byte, walFrameHead)
		n, err := f.ReadAt(fh, off)
		if n == 0 && err == io.EOF {
			return // clean end of segment
		}
		if n != walFrameHead {
			j.stats.TruncatedTails++
			return
		}
		plen := binary.BigEndian.Uint32(fh)
		want := binary.BigEndian.Uint32(fh[4:])
		if plen > 64<<20 {
			// A frame this size was never written; the length bytes are
			// corrupt.
			j.stats.TruncatedTails++
			return
		}
		payload := make([]byte, plen)
		if n, _ := f.ReadAt(payload, off+walFrameHead); n != len(payload) {
			j.stats.TruncatedTails++
			return
		}
		if crc32.ChecksumIEEE(payload) != want {
			j.stats.TruncatedTails++
			return
		}
		var rec walRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			// Checksummed but unparsable — treat like any other torn
			// tail rather than surfacing a parse error.
			j.stats.TruncatedTails++
			return
		}
		j.state.apply(&rec)
		off += walFrameHead + int64(plen)
	}
}

func frameRec(rec *walRec) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: encode journal record: %w", err)
	}
	frame := make([]byte, walFrameHead+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[walFrameHead:], payload)
	return frame, nil
}

// append durably adds one record: write, fsync, then apply to the replay
// state. Transient write faults are retried with capped wall-clock
// backoff (a torn short write is healed by rewriting the same offset);
// a persistent fault marks the journal degraded — sticky — and the
// error surfaces as ErrDegraded to the admission path.
func (j *journal) append(rec *walRec) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return ErrDegraded
	}
	frame, err := frameRec(rec)
	if err != nil {
		return err
	}
	if err := j.writeRetry(frame, j.segOff); err != nil {
		j.dead = true
		j.stats.AppendErrors++
		j.stats.Degraded = true
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	j.segOff += int64(len(frame))
	j.stats.RecordsAppended++
	j.stats.Bytes = j.segOff
	j.state.apply(rec)
	if j.segOff >= j.rotateAt {
		if err := j.compactLocked(); err != nil {
			j.dead = true
			j.stats.AppendErrors++
			j.stats.Degraded = true
			return nil // the record itself is durable; degradation surfaces on the next append
		}
	}
	return nil
}

// writeRetry writes frame at off on the live segment, retrying transient
// faults under iosim.DefaultRetryPolicy. Callers hold j.mu.
func (j *journal) writeRetry(frame []byte, off int64) error {
	retry := iosim.DefaultRetryPolicy()
	var lastErr error
	for attempt := 0; ; attempt++ {
		n, err := j.seg.WriteAt(frame, off)
		if err == nil && n == len(frame) {
			j.syncLocked()
			return nil
		}
		lastErr = err
		if lastErr == nil {
			lastErr = io.ErrShortWrite
		}
		if attempt >= retry.MaxRetries || !iosim.IsTransient(err) {
			return lastErr
		}
		time.Sleep(time.Duration(retry.Backoff(attempt) * float64(time.Second)))
	}
}

// syncLocked fsyncs the live segment when the backing store has a sync
// primitive (OS files do; MemFS is always "durable").
func (j *journal) syncLocked() {
	if sf, ok := j.seg.(interface{ Sync() error }); ok {
		if sf.Sync() == nil {
			j.stats.Fsyncs++
		}
	}
}

// compactLocked rewrites the live state as one snapshot record in a
// brand-new segment and switches appends to it. The predecessor segment
// is deleted only after the snapshot is durable, so a crash anywhere in
// between leaves at least one self-contained lineage to replay. Callers
// hold j.mu.
func (j *journal) compactLocked() error {
	oldSeg, oldIdx := j.seg, j.segIdx
	idx := j.segIdx + 1
	f, err := j.fs.Create(segName(idx))
	if err != nil {
		return fmt.Errorf("serve: create journal segment: %w", err)
	}
	frame, err := frameRec(&walRec{Kind: recCompact, Snapshot: j.state.snapshot()})
	if err != nil {
		f.Close()
		return err
	}
	buf := append([]byte(walMagic), frame...)
	j.seg = f
	if err := j.writeRetry(buf, 0); err != nil {
		j.seg = oldSeg
		f.Close()
		j.fs.Remove(segName(idx))
		return fmt.Errorf("serve: write journal snapshot: %w", err)
	}
	j.segIdx = idx
	j.segOff = int64(len(buf))
	j.stats.Bytes = j.segOff
	j.stats.Compactions++
	if oldSeg != nil {
		oldSeg.Close()
		j.fs.Remove(segName(oldIdx))
	}
	return nil
}

// kill simulates the process dying mid-flight: no further records are
// written (without marking the journal degraded — the "disk" is fine,
// the process is gone). Crash-harness only.
func (j *journal) kill() {
	j.mu.Lock()
	j.dead = true
	j.mu.Unlock()
}

// degraded reports whether the journal has given up on its disk.
func (j *journal) degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats.Degraded
}

func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dead = true
	if j.seg != nil {
		j.seg.Close()
		j.seg = nil
	}
}

func (j *journal) statsSnapshot() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// liveJobs returns the replayed live set in arrival order (openJournal
// callers consume it before concurrent appends start).
func (j *journal) liveJobs() []*walJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*walJob, len(j.state.jobs))
	copy(out, j.state.jobs)
	return out
}

func (j *journal) outcome(key string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	resp, ok := j.state.outcomes[key]
	return resp, ok
}

func (j *journal) jobNum() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.jobNum
}

func (j *journal) tenantWeights() map[string]int {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]int, len(j.state.weights))
	for t, w := range j.state.weights {
		out[t] = w
	}
	return out
}

// workPrefix names a job attempt's namespace on the durable work store.
func workPrefix(id string, attempt int) string { return fmt.Sprintf("%s.a%d/", id, attempt) }

// prefixFS scopes one job attempt's files under workPrefix on the
// durable work store, so concurrent jobs and successive attempts never
// collide and a restart finds the attempt's checkpoints by name.
type prefixFS struct {
	base   iosim.FS
	prefix string
}

func (p *prefixFS) Create(name string) (iosim.File, error) { return p.base.Create(p.prefix + name) }
func (p *prefixFS) Open(name string) (iosim.File, error)   { return p.base.Open(p.prefix + name) }
func (p *prefixFS) Remove(name string) error               { return p.base.Remove(p.prefix + name) }

func (p *prefixFS) Names() []string {
	nm, ok := p.base.(namer)
	if !ok {
		return nil
	}
	var out []string
	for _, name := range nm.Names() {
		if strings.HasPrefix(name, p.prefix) {
			out = append(out, strings.TrimPrefix(name, p.prefix))
		}
	}
	return out
}

// addReplayed/addResumed feed the startup recovery counters.
func (j *journal) addReplayed(n int64) {
	j.mu.Lock()
	j.stats.ReplayedJobs += n
	j.mu.Unlock()
}

func (j *journal) addResumed(n int64) {
	j.mu.Lock()
	j.stats.ResumedJobs += n
	j.mu.Unlock()
}
