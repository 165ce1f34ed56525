package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/cliutil"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrOversize rejects a job whose estimated footprint exceeds the
	// whole memory budget — it could never be admitted.
	ErrOversize = errors.New("serve: job footprint exceeds the memory budget")
	// ErrBusy rejects a job because the queue is full.
	ErrBusy = errors.New("serve: queue full")
	// ErrDraining rejects a job because the server is shutting down.
	ErrDraining = errors.New("serve: draining")
	// ErrDegraded rejects new writes because the journal disk is faulty;
	// reads (metrics, health, idempotent outcome replay) are still
	// served.
	ErrDegraded = errors.New("serve: journal degraded, not accepting new jobs")
	// ErrCrashed fails callers of a server whose simulated crash point
	// fired (CrashSpec); from a client's view it is an ambiguous
	// dropped-connection failure.
	ErrCrashed = errors.New("serve: simulated crash")
)

// JournalConfig enables the write-ahead job journal: with it set, every
// job state transition is made durable before it takes effect and a
// restarted server (Open over the same FS) replays the work it owed.
type JournalConfig struct {
	// FS stores the journal segments. It must support enumeration
	// (MemFS, OSFS and ChaosFS all do).
	FS iosim.FS
	// WorkFS stores the array files and exec checkpoints of resumable
	// jobs, namespaced per job attempt; nil shares FS.
	WorkFS iosim.FS
	// RotateBytes triggers a compacting segment rotation (default 1 MiB).
	RotateBytes int64
	// MaxOutcomes bounds the retained idempotency outcomes (default 256).
	MaxOutcomes int
	// Retry overrides the transient-write retry policy (default
	// iosim.DefaultRetryPolicy).
	Retry *iosim.RetryPolicy
}

// CrashSpec is the service-level chaos harness: the server simulates a
// process death at the Nth occurrence of the named boundary. After the
// crash every caller fails as if the connection dropped, and a fresh
// Open over the same journal exercises the recovery path.
type CrashSpec struct {
	// Point is one of "submit" (after the submit record is durable,
	// before the job is runnable), "dispatch" (after the dispatch record,
	// before execution), "midrun" (at a committed checkpoint epoch of a
	// resumable job) or "complete" (after the completion record, before
	// the response reaches the submitter).
	Point string
	// N selects the occurrence, 1-based (0 means 1).
	N int64
}

// Crash points.
const (
	CrashSubmit   = "submit"
	CrashDispatch = "dispatch"
	CrashMidrun   = "midrun"
	CrashComplete = "complete"
)

// Config tunes a Server. Zero values take the defaults noted per field.
type Config struct {
	// Workers bounds concurrent executions (default 4).
	Workers int
	// QueueLimit bounds the total number of queued jobs (default 1024).
	QueueLimit int
	// CacheEntries bounds the compiled-plan LRU (default 128).
	CacheEntries int
	// MemoryBudget bounds the summed estimated footprint of inflight
	// jobs, in bytes (default 1 GiB). A job whose own estimate exceeds
	// the budget is rejected outright; otherwise dispatch waits until
	// its reservation fits.
	MemoryBudget int64
	// DefaultTimeout is the per-job execution deadline when the request
	// does not set one (default 60s).
	DefaultTimeout time.Duration
	// TenantWeights sets per-tenant fair-share weights (default 1 each).
	// A tenant with weight w receives w shares per dispatch round.
	TenantWeights map[string]int
	// Journal enables crash-safe durability; nil serves purely in
	// memory, exactly as before.
	Journal *JournalConfig
	// Crash injects a simulated process death (tests and chaos gates).
	Crash *CrashSpec
	// Logger receives the structured per-job log trail (submit,
	// dispatch, resume, complete, journal events), each record carrying
	// the job id / tenant / idempotency key / plan fingerprint / attempt
	// correlation fields. Nil discards.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof on the Handler.
	// Off by default: the profiling surface is an operator opt-in.
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 1024
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 1 << 30
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	return c
}

// job is one admitted submission moving through the queue.
type job struct {
	id          string
	req         Request
	res         *compiler.Result
	mach        sim.Config
	fingerprint string
	cacheHit    bool
	footprint   int64
	ctx         context.Context

	// key is the client idempotency key; attempt is the execution
	// namespace on the durable work store (0 until first dispatch);
	// resume asks runJob to restart from the previous attempt's exec
	// checkpoints; replayed marks jobs re-admitted from the journal.
	key      string
	attempt  int
	resume   bool
	replayed bool

	// submittedAt anchors the job-latency histogram; enqueuedAt the
	// queue-wait histogram (reset on every re-queue).
	submittedAt time.Time
	enqueuedAt  time.Time

	done chan struct{}
	resp *Response
	err  error
}

// tenantCounters is the per-tenant accounting view.
type tenantCounters struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Rejected  int64 `json:"rejected"`
}

// Server is the compile-and-run service. Create with New (or Open when
// journaling), submit with Submit (or over HTTP via Handler), and stop
// with Drain or Close.
type Server struct {
	cfg   Config
	cache *planCache

	journal *journal
	workFS  iosim.FS

	mu       sync.Mutex
	dispatch *sync.Cond // signaled on job arrival and shutdown
	change   *sync.Cond // signaled on completion, release and drain
	queues   map[string][]*job
	ring     []string // tenants in first-arrival order; empty queues are skipped
	wrr      map[string]int
	weights  map[string]int
	keys     map[string]*job // in-flight idempotency keys
	queued   int
	inflight int
	reserved int64
	draining bool
	closed   bool
	crashed  bool
	tenants  map[string]*tenantCounters

	// pickupGate, when set, runs after a worker reserves a job's
	// footprint and before it checks the submitter is still there — the
	// deterministic window for the reservation-leak regression test.
	pickupGate func(*job)

	crashCtx    context.Context
	crashCancel context.CancelFunc
	crashN      atomic.Int64
	degraded    atomic.Bool

	log *slog.Logger

	// Live span-stream registry (stream.go).
	streamMu    sync.Mutex
	streams     map[string]*jobStream
	streamOrder []string

	// Latency distributions for the Prometheus exposition (prom.go).
	histJobLatency *promHist
	histQueueWait  *promHist
	histCompile    *promHist
	histFootprint  *promHist

	wg     sync.WaitGroup
	jobSeq atomic.Int64

	submitted        atomic.Int64
	completed        atomic.Int64
	failed           atomic.Int64
	cancelled        atomic.Int64
	deduplicated     atomic.Int64
	rejectedOversize atomic.Int64
	rejectedBusy     atomic.Int64
	rejectedDraining atomic.Int64
}

// New starts a server with cfg's worker pool running. It panics when
// Open would fail, which only a journal configuration can cause — use
// Open directly for journaled servers.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a server, replaying the write-ahead journal first when
// cfg.Journal is set: queued jobs are re-admitted in their original
// arrival order, jobs that were RUNNING at crash time resume from their
// exec checkpoints (or rerun from scratch when their spec is not
// resumable), and retained idempotency outcomes answer retried submits.
func Open(cfg Config) (*Server, error) {
	s := &Server{
		cfg:            cfg.withDefaults(),
		queues:         make(map[string][]*job),
		tenants:        make(map[string]*tenantCounters),
		keys:           make(map[string]*job),
		weights:        make(map[string]int),
		histJobLatency: newPromHist(latencyBuckets),
		histQueueWait:  newPromHist(latencyBuckets),
		histCompile:    newPromHist(compileBuckets),
		histFootprint:  newPromHist(footprintBuckets),
	}
	s.log = s.cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	for t, w := range s.cfg.TenantWeights {
		if w > 0 {
			s.weights[t] = w
		}
	}
	s.cache = newPlanCache(s.cfg.CacheEntries)
	s.dispatch = sync.NewCond(&s.mu)
	s.change = sync.NewCond(&s.mu)
	s.crashCtx, s.crashCancel = context.WithCancel(context.Background())
	if c := s.cfg.Crash; c != nil {
		cc := *c
		if cc.N <= 0 {
			cc.N = 1
		}
		s.cfg.Crash = &cc
	}
	if jc := s.cfg.Journal; jc != nil {
		if jc.FS == nil {
			return nil, errors.New("serve: JournalConfig.FS is required")
		}
		retry := iosim.DefaultRetryPolicy()
		if jc.Retry != nil {
			retry = *jc.Retry
		}
		jn, err := openJournal(jc.FS, jc.RotateBytes, retry, jc.MaxOutcomes)
		if err != nil {
			return nil, err
		}
		s.journal = jn
		s.workFS = jc.WorkFS
		if s.workFS == nil {
			s.workFS = jc.FS
		}
		s.replay()
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// replay rebuilds the queues from the journal's live set, in original
// arrival order, before any worker starts. Jobs with a dispatch record
// (Attempt > 0) were RUNNING when the server died: when their spec is
// resumable and the recompiled plan's fingerprint still matches, they
// keep their attempt namespace and resume from its checkpoints;
// otherwise they rerun from scratch in a fresh namespace.
func (s *Server) replay() {
	for t, w := range s.journal.tenantWeights() {
		if _, ok := s.weights[t]; !ok && w > 0 {
			s.weights[t] = w
		}
	}
	s.jobSeq.Store(s.journal.jobNum())
	keep := make(map[string]bool)
	var replayed int64
	for _, jb := range s.journal.liveJobs() {
		req := jb.Spec.withDefaults()
		j, err := s.build(s.crashCtx, req)
		if err != nil {
			// The spec no longer compiles or fits the budget: complete
			// it as failed so it stops replaying.
			s.journal.append(&walRec{Kind: recComplete, Job: jb.ID, Tenant: jb.Tenant, Error: err.Error()})
			continue
		}
		j.id = jb.ID
		j.key = jb.Key
		j.replayed = true
		if jb.Attempt > 0 {
			j.attempt = jb.Attempt
			if req.resumable() && j.fingerprint == jb.Fingerprint {
				j.resume = true
				keep[workPrefix(j.id, j.attempt)] = true
			}
		}
		t := req.Tenant
		if _, ok := s.queues[t]; !ok && !contains(s.ring, t) {
			s.ring = append(s.ring, t)
		}
		j.submittedAt = time.Now()
		j.enqueuedAt = j.submittedAt
		s.queues[t] = append(s.queues[t], j)
		s.queued++
		s.tenant(t).Submitted++
		s.submitted.Add(1)
		if j.key != "" {
			s.keys[j.key] = j
		}
		s.log.Info("job replayed from journal",
			"job", j.id, "tenant", t, "key", j.key,
			"fingerprint", j.fingerprint, "attempt", j.attempt, "resume", j.resume)
		replayed++
	}
	s.journal.addReplayed(replayed)
	if replayed > 0 {
		s.log.Info("journal replay complete", "jobs", replayed)
	}
	s.sweepWork(keep)
}

// sweepWork removes work-store files from dead attempt namespaces —
// anything shaped "<job>.a<n>/..." that no live resumable job claims.
func (s *Server) sweepWork(keep map[string]bool) {
	nm, ok := s.workFS.(namer)
	if !ok {
		return
	}
	for _, name := range nm.Names() {
		i := strings.Index(name, "/")
		if i < 0 || !strings.Contains(name[:i], ".a") {
			continue
		}
		if keep[name[:i+1]] {
			continue
		}
		s.workFS.Remove(name)
	}
}

// Submit compiles, admits, queues and executes one job, blocking until
// it completes or ctx is cancelled. Rejections return ErrOversize,
// ErrBusy, ErrDraining or ErrDegraded without executing anything. A
// request carrying an idempotency key the server has already completed
// (or is still running) returns the original outcome with Deduplicated
// set instead of executing again.
func (s *Server) Submit(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req = req.withDefaults()
	s.submitted.Add(1)

	if s.journal != nil && req.IdempotencyKey != "" {
		if resp, ok := s.dedupOutcome(req.IdempotencyKey); ok {
			return resp, nil
		}
	}
	if s.degradedNow() {
		s.reject(req.Tenant, ErrDegraded)
		return nil, ErrDegraded
	}
	j, err := s.prepare(ctx, req)
	if err != nil {
		s.reject(req.Tenant, err)
		return nil, err
	}
	j.submittedAt = time.Now()
	if s.journal != nil {
		j.key = req.IdempotencyKey
	}
	attached, dedup, err := s.enqueue(j)
	if err != nil {
		s.reject(req.Tenant, err)
		return nil, err
	}
	if attached == nil && dedup == nil {
		s.log.Info("job submitted",
			"job", j.id, "tenant", j.req.Tenant, "key", j.key,
			"fingerprint", j.fingerprint, "cache_hit", j.cacheHit,
			"footprint", j.footprint)
	}
	if dedup != nil {
		return dedup, nil
	}
	if attached != nil {
		// Another in-flight job owns this idempotency key; ride along
		// on its outcome.
		select {
		case <-attached.done:
			if attached.err != nil {
				return nil, attached.err
			}
			cp := *attached.resp
			cp.Deduplicated = true
			s.deduplicated.Add(1)
			return &cp, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	select {
	case <-j.done:
		return j.resp, j.err
	case <-ctx.Done():
		// The job stays queued; whoever dispatches it sees the dead
		// context and discards it. Wake budget waiters so a worker
		// parked on this job's behalf rechecks.
		s.mu.Lock()
		s.change.Broadcast()
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

// dedupOutcome answers a keyed submit from the journal's retained
// outcomes.
func (s *Server) dedupOutcome(key string) (*Response, bool) {
	raw, ok := s.journal.outcome(key)
	if !ok {
		return nil, false
	}
	resp, err := decodeOutcome(raw)
	if err != nil {
		return nil, false
	}
	s.deduplicated.Add(1)
	return resp, true
}

func decodeOutcome(raw json.RawMessage) (*Response, error) {
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("serve: decode stored outcome: %w", err)
	}
	resp.Deduplicated = true
	return &resp, nil
}

// prepare resolves the machine, compiles through the cache, sizes the
// admission reservation and assigns a fresh job id.
func (s *Server) prepare(ctx context.Context, req Request) (*job, error) {
	j, err := s.build(ctx, req)
	if err != nil {
		return nil, err
	}
	j.id = fmt.Sprintf("job-%d", s.jobSeq.Add(1))
	return j, nil
}

// build is prepare minus the id assignment; journal replay uses it to
// reconstruct a job under its original id.
func (s *Server) build(ctx context.Context, req Request) (*job, error) {
	machineFor, err := cliutil.MachineFor(req.Machine)
	if err != nil {
		return nil, &compileError{err}
	}
	mach := machineFor(req.Procs)
	src := req.Source
	if src == "" {
		src = hpf.GaxpySource
	}
	res, fp, hit, err := s.cache.getOrCompile(req.cacheKey(mach), func() (*compiler.Result, string, error) {
		start := time.Now()
		r, cerr := compiler.CompileSource(src, compiler.Options{
			N: req.N, Procs: req.Procs, MemElems: req.MemElems,
			Machine: mach, Force: req.Force, Sieve: req.Sieve,
			Policy: compiler.PolicyWeighted,
		})
		if cerr != nil {
			return nil, "", &compileError{fmt.Errorf("serve: compile: %w", cerr)}
		}
		// Cache misses only: hits cost a map lookup, not a compile.
		s.histCompile.observe(time.Since(start).Seconds())
		return r, plan.Fingerprint(r.Program, fingerprintExtras(mach, req.MemElems)), nil
	})
	if err != nil {
		return nil, err
	}
	footprint := EstimateFootprint(res.Program, req.Phantom, req.Parity)
	if footprint > s.cfg.MemoryBudget {
		return nil, fmt.Errorf("%w: need %d bytes, budget %d", ErrOversize, footprint, s.cfg.MemoryBudget)
	}
	return &job{
		req:         req,
		res:         res,
		mach:        mach,
		fingerprint: fp,
		cacheHit:    hit,
		footprint:   footprint,
		ctx:         ctx,
		done:        make(chan struct{}),
	}, nil
}

// enqueue admits the job into its tenant's FIFO, journaling the submit
// first so the job is durable before it is runnable. It returns a
// non-nil attached job when an in-flight job already owns the same
// idempotency key, or a non-nil dedup response when a retained outcome
// answers the key.
func (s *Server) enqueue(j *job) (attached *job, dedup *Response, err error) {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return nil, nil, ErrCrashed
	}
	if s.draining || s.closed {
		s.mu.Unlock()
		return nil, nil, ErrDraining
	}
	if s.queued >= s.cfg.QueueLimit {
		n := s.queued
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %d jobs queued", ErrBusy, n)
	}
	if s.journal != nil && j.key != "" {
		if jx := s.keys[j.key]; jx != nil {
			s.mu.Unlock()
			return jx, nil, nil
		}
		// The key may have completed between Submit's fast path and
		// here; keys are only deleted after their outcome is retained,
		// so checking the journal again closes the gap.
		if raw, ok := s.journal.outcome(j.key); ok {
			s.mu.Unlock()
			resp, derr := decodeOutcome(raw)
			if derr != nil {
				return nil, nil, derr
			}
			s.deduplicated.Add(1)
			return nil, resp, nil
		}
		s.keys[j.key] = j
	}
	s.queued++ // provisional slot while the submit record is written
	s.mu.Unlock()

	if s.journal != nil {
		rec := &walRec{Kind: recSubmit, Job: j.id, Tenant: j.req.Tenant, Key: j.key,
			Weight: j.req.TenantWeight, Spec: &j.req, Fingerprint: j.fingerprint}
		if aerr := s.journal.append(rec); aerr != nil {
			s.degraded.Store(true)
			s.log.Error("journal degraded: submit record failed",
				"job", j.id, "tenant", j.req.Tenant, "key", j.key, "error", aerr.Error())
			s.unenqueue(j)
			// Fail any submit that already attached to this key.
			j.err = aerr
			close(j.done)
			return nil, nil, aerr
		}
		s.crashPoint(CrashSubmit)
	}

	s.mu.Lock()
	if s.crashed || s.closed || s.draining {
		if !s.closed {
			s.queued--
		}
		if j.key != "" && s.keys[j.key] == j {
			delete(s.keys, j.key)
		}
		crashed := s.crashed
		s.mu.Unlock()
		if crashed {
			// The submit record is durable but the "process" died before
			// the job became runnable: the submitter sees an ambiguous
			// failure, and the restarted server replays the job.
			j.err = ErrCrashed
			close(j.done)
			return nil, nil, ErrCrashed
		}
		// Shut down between the record and admission: tell the journal
		// the client saw a rejection (best-effort — the journal may
		// already be closed).
		if s.journal != nil {
			s.journal.append(&walRec{Kind: recCancel, Job: j.id, Error: ErrDraining.Error()})
		}
		j.err = ErrDraining
		close(j.done)
		return nil, nil, ErrDraining
	}
	t := j.req.Tenant
	if j.req.TenantWeight > 0 {
		s.weights[t] = j.req.TenantWeight
	}
	if _, ok := s.queues[t]; !ok && !contains(s.ring, t) {
		s.ring = append(s.ring, t)
	}
	j.enqueuedAt = time.Now()
	s.queues[t] = append(s.queues[t], j)
	s.tenant(t).Submitted++
	s.dispatch.Signal()
	s.mu.Unlock()
	return nil, nil, nil
}

// unenqueue rolls back a provisional admission after a journal append
// failure.
func (s *Server) unenqueue(j *job) {
	s.mu.Lock()
	if !s.closed {
		s.queued--
	}
	if j.key != "" && s.keys[j.key] == j {
		delete(s.keys, j.key)
	}
	s.mu.Unlock()
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// tenant returns t's counters, creating them on first use. Callers hold
// s.mu.
func (s *Server) tenant(t string) *tenantCounters {
	tc := s.tenants[t]
	if tc == nil {
		tc = &tenantCounters{}
		s.tenants[t] = tc
	}
	return tc
}

func (s *Server) reject(tenant string, err error) {
	switch {
	case errors.Is(err, ErrOversize):
		s.rejectedOversize.Add(1)
	case errors.Is(err, ErrBusy):
		s.rejectedBusy.Add(1)
	case errors.Is(err, ErrDraining) || errors.Is(err, ErrDegraded):
		s.rejectedDraining.Add(1)
	}
	s.mu.Lock()
	s.tenant(tenant).Rejected++
	s.mu.Unlock()
}

// degradedNow reports whether the journal has given up on its disk.
func (s *Server) degradedNow() bool {
	if s.degraded.Load() {
		return true
	}
	if s.journal != nil && s.journal.degraded() {
		s.degraded.Store(true)
		return true
	}
	return false
}

// worker pulls jobs fair-share, reserves their footprint against the
// budget, and executes them.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		if !j.enqueuedAt.IsZero() {
			s.histQueueWait.observe(time.Since(j.enqueuedAt).Seconds())
		}
		if err := s.reserve(j); err != nil {
			s.finish(j, nil, err)
			continue
		}
		s.histFootprint.observe(float64(j.footprint))
		if s.pickupGate != nil {
			s.pickupGate(j)
		}
		if err := j.ctx.Err(); err != nil {
			// The submitter vanished between the reservation and the
			// pickup: return the footprint before accounting the
			// cancellation, or those bytes would stay charged against
			// the budget for a job that never runs.
			s.release(j.footprint)
			s.finish(j, nil, err)
			continue
		}
		if s.journal != nil {
			if !j.resume {
				j.attempt++
			}
			rec := &walRec{Kind: recDispatch, Job: j.id, Attempt: j.attempt}
			if aerr := s.journal.append(rec); aerr != nil && !s.isCrashed() {
				s.degraded.Store(true)
				s.log.Error("journal degraded: dispatch record failed",
					"job", j.id, "attempt", j.attempt, "error", aerr.Error())
			}
			s.crashPoint(CrashDispatch)
			if s.isCrashed() {
				s.release(j.footprint)
				s.finish(j, nil, ErrCrashed)
				continue
			}
		}
		s.log.Info("job dispatched",
			"job", j.id, "tenant", j.req.Tenant, "key", j.key,
			"fingerprint", j.fingerprint, "attempt", j.attempt,
			"resume", j.resume, "footprint", j.footprint)
		resp, err := s.runJob(j)
		s.release(j.footprint)
		s.finish(j, resp, err)
	}
}

// next blocks until a job is available or the server closes (nil).
// Dispatch is smooth weighted round-robin over tenants with pending
// work, FIFO within a tenant: each tenant's current credit grows by its
// weight every round, the largest credit wins the slot and pays the
// round's total back, so a tenant with weight w receives w of every
// sum-of-weights dispatches and a tenant flooding the queue cannot
// starve the others.
func (s *Server) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil
		}
		if s.queued > 0 {
			if s.wrr == nil {
				s.wrr = make(map[string]int)
			}
			total, best := 0, ""
			for _, t := range s.ring {
				if len(s.queues[t]) == 0 {
					continue
				}
				w := s.weightOf(t)
				s.wrr[t] += w
				total += w
				if best == "" || s.wrr[t] > s.wrr[best] {
					best = t
				}
			}
			if best != "" {
				s.wrr[best] -= total
				q := s.queues[best]
				j := q[0]
				q[0] = nil
				s.queues[best] = q[1:]
				s.queued--
				s.inflight++
				return j
			}
		}
		s.dispatch.Wait()
	}
}

// weightOf resolves a tenant's fair-share weight. Callers hold s.mu.
func (s *Server) weightOf(t string) int {
	if w := s.weights[t]; w > 0 {
		return w
	}
	return 1
}

// reserve blocks until the job's footprint fits under the budget, then
// charges it. A job whose submitter already gave up is discarded here
// instead of waiting for memory it will never use.
func (s *Server) reserve(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := j.ctx.Err(); err != nil {
			return err
		}
		if s.closed {
			return ErrDraining
		}
		if s.reserved+j.footprint <= s.cfg.MemoryBudget {
			s.reserved += j.footprint
			return nil
		}
		s.change.Wait()
	}
}

func (s *Server) release(footprint int64) {
	s.mu.Lock()
	s.reserved -= footprint
	s.change.Broadcast()
	s.mu.Unlock()
}

// finish completes the job and publishes the outcome, journaling it
// first (unless the simulated process death already happened — a dead
// process writes nothing, which is exactly what lets the restarted
// server find the job again).
func (s *Server) finish(j *job, resp *Response, err error) {
	if s.journal != nil && !s.isCrashed() {
		resp, err = s.journalOutcome(j, resp, err)
	}
	j.resp, j.err = resp, err
	s.mu.Lock()
	s.inflight--
	if j.key != "" && s.keys[j.key] == j {
		delete(s.keys, j.key)
	}
	tc := s.tenant(j.req.Tenant)
	switch {
	case err == nil:
		tc.Completed++
	default:
		tc.Failed++
	}
	s.change.Broadcast()
	s.mu.Unlock()
	outcome := "completed"
	switch {
	case err == nil:
		s.completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		outcome = "cancelled"
		s.cancelled.Add(1)
	default:
		outcome = "failed"
		s.failed.Add(1)
	}
	if !j.submittedAt.IsZero() {
		s.histJobLatency.observe(time.Since(j.submittedAt).Seconds())
	}
	attrs := []any{
		"job", j.id, "tenant", j.req.Tenant, "key", j.key,
		"fingerprint", j.fingerprint, "attempt", j.attempt, "outcome", outcome,
	}
	if err != nil {
		s.log.Warn("job finished", append(attrs, "error", err.Error())...)
	} else {
		if resp != nil {
			attrs = append(attrs, "sim_s", resp.SimSeconds, "attempts", resp.Attempts)
		}
		s.log.Info("job finished", attrs...)
	}
	close(j.done)
}

// journalOutcome records the job's terminal transition. A successful
// outcome with an idempotency key is retained (minus the trace
// artifact) for retried submitters; failures free the key for a fresh
// attempt. When the completion crash point fires the record is durable
// but the response never reaches the submitter.
func (s *Server) journalOutcome(j *job, resp *Response, err error) (*Response, error) {
	var rec *walRec
	switch {
	case err == nil:
		rec = &walRec{Kind: recComplete, Job: j.id, Tenant: j.req.Tenant, OK: true}
		if j.key != "" {
			cp := *resp
			cp.Trace = nil
			if raw, merr := json.Marshal(&cp); merr == nil {
				rec.Key, rec.Outcome = j.key, raw
			}
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		rec = &walRec{Kind: recCancel, Job: j.id, Error: err.Error()}
	default:
		rec = &walRec{Kind: recComplete, Job: j.id, Tenant: j.req.Tenant, Error: err.Error()}
	}
	if aerr := s.journal.append(rec); aerr != nil {
		if !s.isCrashed() {
			s.degraded.Store(true)
			s.log.Error("journal degraded: completion record failed",
				"job", j.id, "tenant", j.req.Tenant, "key", j.key, "error", aerr.Error())
		}
		return resp, err
	}
	if err == nil {
		s.crashPoint(CrashComplete)
	}
	if s.isCrashed() {
		// The transition is durable but the "process" died before the
		// response went out: the submitter sees an ambiguous failure,
		// and a retried submit with the same key is answered from the
		// retained outcome.
		return nil, ErrCrashed
	}
	if j.attempt > 0 {
		s.sweepAttempts(j.id)
	}
	return resp, err
}

// sweepAttempts removes every work-store file of the job's attempt
// namespaces after its terminal transition.
func (s *Server) sweepAttempts(id string) {
	nm, ok := s.workFS.(namer)
	if !ok {
		return
	}
	prefix := id + ".a"
	for _, name := range nm.Names() {
		if strings.HasPrefix(name, prefix) {
			s.workFS.Remove(name)
		}
	}
}

// crashPoint fires the configured simulated process death when point's
// Nth occurrence arrives.
func (s *Server) crashPoint(point string) {
	c := s.cfg.Crash
	if c == nil || c.Point != point {
		return
	}
	if s.crashN.Add(1) != c.N {
		return
	}
	s.beginCrash()
}

// beginCrash simulates the process dying now: the journal stops
// persisting (the disk is fine; the process is gone), every queued and
// running job's caller fails, and the worker pool unwinds. The journal
// still holds everything a restarted server needs.
func (s *Server) beginCrash() {
	s.log.Warn("simulated process crash", "point", s.cfg.Crash.Point, "n", s.cfg.Crash.N)
	if s.journal != nil {
		s.journal.kill()
	}
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return
	}
	s.crashed = true
	s.draining = true
	s.closed = true
	var orphans []*job
	for t, q := range s.queues {
		orphans = append(orphans, q...)
		s.queues[t] = nil
	}
	s.queued = 0
	s.dispatch.Broadcast()
	s.change.Broadcast()
	s.mu.Unlock()
	s.crashCancel()
	for _, j := range orphans {
		j.err = ErrCrashed
		close(j.done)
	}
}

func (s *Server) isCrashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// runJob executes one admitted job: the shared flags→options mapping,
// the canonical fills, and a per-job deadline. Resumable jobs on a
// journaled server run against a durable per-attempt namespace of the
// work store so a restart can pick up their exec checkpoints; everything
// else runs on a fresh in-memory store. Jobs with a kill schedule run
// the full recovery pipeline.
func (s *Server) runJob(j *job) (*Response, error) {
	ctx, cancel := context.WithTimeout(j.ctx, j.req.timeout(s.cfg.DefaultTimeout))
	defer cancel()
	if s.crashCtx != nil {
		stop := context.AfterFunc(s.crashCtx, cancel)
		defer stop()
	}

	rf := j.req.runFlags()
	durable := s.journal != nil && j.req.resumable()
	var base iosim.FS
	if durable {
		base = &prefixFS{base: s.workFS, prefix: workPrefix(j.id, j.attempt)}
	}
	resume := durable && j.resume
	eopts, _, err := rf.Build(base, resume)
	if err != nil {
		return nil, err
	}
	eopts.Fill = cliutil.FillsFor(j.res)
	if durable {
		eopts.RestoreStats = resume
		if c := s.cfg.Crash; c != nil && c.Point == CrashMidrun {
			eopts.CkptHook = func(int) { s.crashPoint(CrashMidrun) }
		}
	}
	var tracer *trace.Tracer
	if j.req.Trace {
		tracer = trace.NewTracer(j.res.Program.Procs)
		eopts.Trace = tracer
		// Publish spans live: subscribers follow GET /jobs/{id}/trace
		// while the job runs. CloseSink on exit drains the hand-off
		// queue, appends the stream trailer and finishes the stream on
		// every path — including failures, where followers still get a
		// well-terminated stream. The recovery path below reassigns
		// tracer to the last attempt's tracer, which shares the same
		// sink state via AdoptSink.
		st := s.openStream(j.id)
		tracer.SetSink(&streamSink{st: st}, 0)
		defer func() {
			if cerr := tracer.CloseSink(); cerr != nil {
				s.log.Warn("span stream close failed", "job", j.id, "error", cerr.Error())
			}
		}()
	}

	resp := &Response{
		JobID:           j.id,
		Tenant:          j.req.Tenant,
		Program:         j.res.Program.Name,
		Strategy:        j.res.Program.Strategy,
		PlanFingerprint: j.fingerprint,
		CacheHit:        j.cacheHit,
		Attempts:        1,
	}
	var out *exec.Result
	switch {
	case len(eopts.Kill) > 0:
		eopts.Detect = &mp.Detector{Heartbeat: 1e-3, Misses: 3}
		rout, rerr := exec.RunResilientCtx(ctx, j.res.Program, j.mach, eopts, len(eopts.Kill))
		if rerr != nil {
			return nil, rerr
		}
		out = rout.Result
		resp.Attempts = rout.Attempts
		resp.Recoveries = len(rout.Recoveries)
		tracer = rout.Trace
	case resume:
		out, err = exec.ResumeCtx(ctx, j.res.Program, j.mach, eopts)
		if errors.Is(err, exec.ErrNoCheckpoint) {
			// Dispatched, but the crash landed before the first commit:
			// there is nothing to restore, so run from scratch in the
			// same namespace.
			s.sweepAttempts(j.id)
			eopts.RestoreStats = false
			out, err = exec.RunCtx(ctx, j.res.Program, j.mach, eopts)
		} else if err == nil {
			resp.Resumed = true
			s.journal.addResumed(1)
			s.log.Info("job resumed from checkpoint",
				"job", j.id, "tenant", j.req.Tenant, "key", j.key,
				"fingerprint", j.fingerprint, "attempt", j.attempt)
		}
		if err != nil {
			return nil, err
		}
	default:
		out, err = exec.RunCtx(ctx, j.res.Program, j.mach, eopts)
		if err != nil {
			return nil, err
		}
	}
	resp.SimSeconds = out.Stats.ElapsedSeconds()
	resp.Stats = out.Stats.Snapshot()
	if j.req.Trace && tracer != nil {
		var buf bytes.Buffer
		if err := tracer.ExportChromeTrace(&buf); err != nil {
			return nil, err
		}
		resp.Trace = buf.Bytes()
	}
	if durable {
		// The durable namespace's array files and checkpoints are dead
		// weight once the stats are captured.
		out.Close()
	}
	return resp, nil
}

// Metrics is the server's observable state.
type Metrics struct {
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	Inflight   int `json:"inflight"`

	Submitted    int64 `json:"submitted"`
	Completed    int64 `json:"completed"`
	Failed       int64 `json:"failed"`
	Cancelled    int64 `json:"cancelled"`
	Deduplicated int64 `json:"deduplicated,omitempty"`

	RejectedOversize int64 `json:"rejected_oversize"`
	RejectedBusy     int64 `json:"rejected_busy"`
	RejectedDraining int64 `json:"rejected_draining"`

	ReservedBytes int64 `json:"reserved_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`

	// Degraded mirrors the journal's give-up flag; Journal carries the
	// durability counters when journaling is on.
	Degraded bool          `json:"degraded,omitempty"`
	Journal  *JournalStats `json:"journal,omitempty"`

	Cache   CacheStats                 `json:"cache"`
	Tenants map[string]*tenantCounters `json:"tenants"`

	Bufpool bufpool.Stats `json:"bufpool"`
}

// MetricsSnapshot captures the current metrics.
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	m := Metrics{
		Workers:       s.cfg.Workers,
		QueueDepth:    s.queued,
		Inflight:      s.inflight,
		ReservedBytes: s.reserved,
		BudgetBytes:   s.cfg.MemoryBudget,
		Tenants:       make(map[string]*tenantCounters, len(s.tenants)),
	}
	for t, c := range s.tenants {
		cc := *c
		m.Tenants[t] = &cc
	}
	s.mu.Unlock()
	m.Submitted = s.submitted.Load()
	m.Completed = s.completed.Load()
	m.Failed = s.failed.Load()
	m.Cancelled = s.cancelled.Load()
	m.Deduplicated = s.deduplicated.Load()
	m.RejectedOversize = s.rejectedOversize.Load()
	m.RejectedBusy = s.rejectedBusy.Load()
	m.RejectedDraining = s.rejectedDraining.Load()
	m.Cache = s.cache.stats()
	m.Bufpool = bufpool.Snapshot()
	if s.journal != nil {
		js := s.journal.statsSnapshot()
		m.Journal = &js
		m.Degraded = js.Degraded || s.degraded.Load()
	}
	return m
}

// Draining reports whether the server has stopped accepting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// Degraded reports whether the journal disk forced the server into
// read-only degraded mode.
func (s *Server) Degraded() bool { return s.degradedNow() }

// Drain stops accepting new jobs, waits until the queue and the worker
// pool are empty (or ctx expires), then stops the workers. After Drain
// the server serves no more jobs; metrics stay readable.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.mu.Lock()
		for (s.queued > 0 || s.inflight > 0) && !s.closed {
			s.change.Wait()
		}
		s.mu.Unlock()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.Close()
	return err
}

// Close stops the worker pool immediately: still-queued jobs fail with
// ErrDraining and workers exit after their current job. On a journaled
// server, orphaned fresh jobs are cancelled in the journal (their
// submitters saw the rejection), while orphaned replayed jobs — which
// have no submitter — stay live and replay on the next Open. Use Drain
// for a graceful stop. Close is idempotent and always waits for the
// workers to unwind.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		if s.journal != nil {
			s.journal.close()
		}
		return
	}
	s.draining = true
	s.closed = true
	var orphans []*job
	for t, q := range s.queues {
		orphans = append(orphans, q...)
		s.queues[t] = nil
	}
	s.queued = 0
	for _, j := range orphans {
		s.tenant(j.req.Tenant).Rejected++
	}
	s.dispatch.Broadcast()
	s.change.Broadcast()
	s.mu.Unlock()
	for _, j := range orphans {
		if s.journal != nil && !j.replayed {
			s.journal.append(&walRec{Kind: recCancel, Job: j.id, Error: ErrDraining.Error()})
		}
		j.err = ErrDraining
		s.rejectedDraining.Add(1)
		close(j.done)
	}
	s.wg.Wait()
	if s.journal != nil {
		s.journal.close()
	}
}
