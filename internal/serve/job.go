// Package serve is the multi-tenant compile-and-run service: it accepts
// (mini-HPF program, machine spec, execution options) jobs over
// HTTP/JSON, compiles them through an LRU plan cache keyed on the
// canonical compile inputs, and executes them on a bounded worker pool
// under admission control against a host-memory budget, with per-tenant
// fair-share dispatch. Every served run is bitwise identical to the same
// program executed directly with exec.Run under the same options.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"github.com/ooc-hpf/passion/internal/cliutil"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Request is one job submission. The zero value of every field is a
// usable default: the built-in GAXPY source at the CLI's default scale,
// on the paper's Delta machine, with no fault injection.
type Request struct {
	// Tenant names the submitting tenant for fair-share scheduling and
	// per-tenant accounting; empty maps to "default".
	Tenant string `json:"tenant,omitempty"`

	// Source is the mini-HPF program text; empty means the built-in
	// GAXPY program.
	Source string `json:"source,omitempty"`
	// N, Procs and MemElems are the compile parameters; zero values take
	// the CLI defaults (256, 4, 32768).
	N        int `json:"n,omitempty"`
	Procs    int `json:"procs,omitempty"`
	MemElems int `json:"mem_elems,omitempty"`
	// Force pins a strategy; Machine picks the cost model (delta or
	// modern).
	Force   string `json:"force,omitempty"`
	Machine string `json:"machine,omitempty"`

	// Execution options, mirroring the ooc-run flags of the same names.
	Sieve         bool    `json:"sieve,omitempty"`
	Prefetch      bool    `json:"prefetch,omitempty"`
	Phantom       bool    `json:"phantom,omitempty"`
	Chaos         float64 `json:"chaos,omitempty"`
	ChaosCorrupt  float64 `json:"chaos_corrupt,omitempty"`
	ChaosDiskLoss float64 `json:"chaos_disk_loss,omitempty"`
	ChaosSeed     int64   `json:"chaos_seed,omitempty"`
	LoseDisk      string  `json:"lose_disk,omitempty"`
	// Retries is the per-operation retry budget; nil means the default
	// policy when faults are injected (the CLI's -retries -1).
	Retries    *int   `json:"retries,omitempty"`
	Checkpoint int    `json:"checkpoint,omitempty"`
	Parity     bool   `json:"parity,omitempty"`
	KillRank   string `json:"kill_rank,omitempty"`

	// TimeoutMS bounds the job's execution; zero takes the server's
	// default deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace asks for a Chrome-trace-event timeline in the response.
	Trace bool `json:"trace,omitempty"`

	// IdempotencyKey makes retried submits safe across an ambiguous
	// failure: on a journaled server, a key the server has already
	// completed (or is still running) returns the original outcome with
	// Deduplicated set instead of executing again. Keys of failed jobs
	// are released, so a retry after a real failure runs fresh.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// TenantWeight updates the submitting tenant's fair-share weight
	// (zero leaves it alone; the default weight is 1). A tenant with
	// weight w receives w shares per dispatch round.
	TenantWeight int `json:"tenant_weight,omitempty"`
}

// resumable reports whether a crash-interrupted run of this spec can be
// resumed from its exec checkpoints with bitwise-identical final
// statistics. Fault-injection and tracing runs rerun from scratch
// instead: their recovery attempts, chaos schedules and span buffers
// are not part of the checkpointed state.
func (r Request) resumable() bool {
	return r.Checkpoint > 0 && !r.Parity && !r.Prefetch && !r.Phantom && !r.Trace &&
		r.KillRank == "" && r.Chaos == 0 && r.ChaosCorrupt == 0 && r.ChaosDiskLoss == 0 &&
		r.LoseDisk == ""
}

// withDefaults fills the zero-value fields with the CLI defaults, so a
// served job and an ooc-run invocation agree on what "unspecified"
// means.
func (r Request) withDefaults() Request {
	if r.Tenant == "" {
		r.Tenant = "default"
	}
	if r.N <= 0 {
		r.N = 256
	}
	if r.Procs <= 0 {
		r.Procs = 4
	}
	if r.MemElems <= 0 {
		r.MemElems = 1 << 15
	}
	if r.ChaosSeed == 0 {
		r.ChaosSeed = 1
	}
	return r
}

// runFlags maps the request onto the shared flags→exec.Options mapping,
// so a served job builds its execution options exactly the way the CLI
// does.
func (r Request) runFlags() cliutil.RunFlags {
	rf := cliutil.RunFlags{
		Sieve:         r.Sieve,
		Prefetch:      r.Prefetch,
		Phantom:       r.Phantom,
		Chaos:         r.Chaos,
		ChaosCorrupt:  r.ChaosCorrupt,
		ChaosDiskLoss: r.ChaosDiskLoss,
		ChaosSeed:     r.ChaosSeed,
		LoseDisk:      r.LoseDisk,
		Retries:       -1,
		Checkpoint:    r.Checkpoint,
		Parity:        r.Parity,
		KillRank:      r.KillRank,
	}
	if r.Retries != nil {
		rf.Retries = *r.Retries
	}
	return rf
}

// timeout resolves the job deadline against the server default.
func (r Request) timeout(def time.Duration) time.Duration {
	if r.TimeoutMS > 0 {
		return time.Duration(r.TimeoutMS) * time.Millisecond
	}
	return def
}

// cacheKey is the canonical identity of the compiled plan: everything
// compilation depends on — source text, problem scale, memory, forced
// strategy, sieving, and the machine cost parameters — folded through
// one hash. Two requests with equal keys compile to the same plan, so
// the second can reuse the first's.
func (r Request) cacheKey(mach sim.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "serve/v1|n=%d|p=%d|mem=%d|force=%s|sieve=%t\n",
		r.N, r.Procs, r.MemElems, r.Force, r.Sieve)
	fmt.Fprintf(h, "mach|%+v\n", mach)
	h.Write([]byte(r.Source))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// fingerprintExtras is the cost-parameter context folded into the
// compiled plan's fingerprint, so plans for the same program on
// different machines report different identities.
func fingerprintExtras(mach sim.Config, mem int) map[string]string {
	return map[string]string{
		"machine": fmt.Sprintf("%+v", mach),
		"mem":     fmt.Sprintf("%d", mem),
	}
}

// EstimateFootprint is the admission-control estimate of a job's peak
// host memory, in bytes: every rank's slab and staging buffers (two
// arena buffers per array per rank, float64 elements), plus — outside
// phantom mode — the full backing files in the in-memory store, with
// the rotated-parity overhead of 1/(P-1) when parity is on.
func EstimateFootprint(p *plan.Program, phantom, parity bool) int64 {
	var slabElems, fileElems int64
	for _, a := range p.Arrays {
		slabElems += int64(a.SlabElems)
		fileElems += int64(a.Rows) * int64(a.Cols)
	}
	fp := slabElems * 8 * 2 * int64(p.Procs)
	if !phantom {
		files := fileElems * iosim.FileElemBytes
		if parity && p.Procs > 1 {
			files += files / int64(p.Procs-1)
		}
		fp += files
	}
	return fp
}

// Response is a completed job.
type Response struct {
	JobID           string `json:"job_id"`
	Tenant          string `json:"tenant"`
	Program         string `json:"program"`
	Strategy        string `json:"strategy"`
	PlanFingerprint string `json:"plan_fingerprint"`
	// CacheHit reports whether the compiled plan came from the LRU
	// cache rather than a fresh compilation.
	CacheHit bool `json:"cache_hit"`
	// Attempts and Recoveries are the resilient-run counters (1 and 0
	// for an undisturbed run).
	Attempts   int `json:"attempts"`
	Recoveries int `json:"recoveries"`
	// Resumed reports that the run restarted from the exec checkpoints a
	// previous server life committed; Deduplicated reports that the
	// response is a replay of an earlier outcome under the same
	// idempotency key rather than a fresh execution.
	Resumed      bool `json:"resumed,omitempty"`
	Deduplicated bool `json:"deduplicated,omitempty"`
	// SimSeconds is the simulated execution time; Stats is the full
	// statistics snapshot, bitwise identical to a direct exec.Run of
	// the same job.
	SimSeconds float64        `json:"sim_seconds"`
	Stats      trace.Snapshot `json:"stats"`
	// Trace is the Chrome-trace-event timeline when the request asked
	// for one.
	Trace json.RawMessage `json:"trace,omitempty"`
}
