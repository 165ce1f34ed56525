// Package exec runs compiled node programs (plan.Program) on the
// simulated distributed memory machine: the program is lowered to its
// opcode stream (internal/bytecode) and P processor goroutines execute it
// in SPMD style against their out-of-core local arrays, performing real
// file I/O, real message passing and real arithmetic while the simulated
// clocks accumulate the machine-model costs.
package exec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/parity"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Options configures an execution.
type Options struct {
	// Fill provides initial values for input arrays by name; inputs
	// without an entry start zeroed.
	Fill map[string]func(gi, gj int) float64
	// Runtime passes data sieving / prefetching switches to the
	// out-of-core array runtime.
	Runtime oocarray.Options
	// Phantom executes in accounting-only mode (no file data movement,
	// no arithmetic; identical statistics).
	Phantom bool
	// FS is the backing store; nil means a fresh in-memory file system.
	FS iosim.FS
	// Trace, when non-nil, collects a timeline of typed spans — compute,
	// communication, I/O, retries, parity maintenance — across all
	// processors against the simulated clocks (see trace.Tracer). Spans
	// reconcile exactly with the run's statistics (trace.Reconcile).
	Trace *trace.Tracer
	// Resilience, when non-nil, routes all local array file I/O through
	// the retrying, checksum-verifying disk layer: transient faults are
	// retried with backoff charged to the simulated clocks, and checksum
	// mismatches on reads surface as detected (never silent) corruption.
	// Pass the same Resilience to a later Resume so the checksum store
	// survives the restart.
	Resilience *iosim.Resilience
	// Checkpoint, when non-nil, periodically commits a consistent global
	// checkpoint a failed run can restart from with Resume. It also
	// changes the error-path cleanup: the run's files are kept on disk so
	// the checkpoint stays usable.
	Checkpoint *CheckpointSpec
	// Parity protects every local array file with RAID-5-style rotated
	// XOR parity (internal/parity): a permanently failed or lost file is
	// reconstructed online from the surviving disks and the run finishes
	// in degraded mode, with full redundancy rebuilt before the run is
	// declared complete. Parity maintenance is charged to the simulated
	// clocks and surfaced in the Parity*/Reconstruct* statistics.
	Parity bool
	// Kill schedules injected fail-stop rank deaths: rank Rank stops
	// immediately before its Op'th counted operation (messages and local
	// array chunk I/O). Combine with Checkpoint and Parity under
	// RunResilient to survive the loss.
	Kill []mp.KillSpec
	// Detect enables simulated-clock heartbeat failure detection: an
	// operation blocked on a dead rank resolves to mp.ErrRankDead after
	// the heartbeat timeout and survivors agree on the failed set. Nil
	// leaves rank death to the closed-channel diagnostics (the run still
	// terminates, without typed errors or agreement).
	Detect *mp.Detector
	// StallTimeout overrides the deadlock watchdog's wall-clock quiet
	// period (see mp.Options.StallTimeout).
	StallTimeout time.Duration
	// OpCounts, when non-nil (len >= Procs), receives each rank's final
	// fail-stop operation count; probe runs use it to learn the op-index
	// space a kill schedule can target.
	OpCounts []int64
	// RestoreStats makes Resume restore each rank's simulated clock and
	// statistics counters from the checkpoint manifest and replay the
	// commit barrier, so a resumed run's final statistics are bitwise
	// identical to the uninterrupted run's. It changes nothing on fresh
	// runs, and falls back to plain resume semantics for manifests that
	// predate the stats snapshot.
	RestoreStats bool
	// CkptHook, when non-nil, runs on rank 0 immediately after each
	// checkpoint epoch commits (post-barrier) with the committed epoch
	// number. Chaos and test harnesses use it to crash, cancel or
	// observe a run at a deterministic mid-run boundary.
	CkptHook func(epoch int)
}

// mpOptions maps the execution options onto the message-passing
// machine's fault configuration.
func (o Options) mpOptions() mp.Options {
	return mp.Options{Kill: o.Kill, Detect: o.Detect, StallTimeout: o.StallTimeout, OpCounts: o.OpCounts}
}

// failureActive reports whether any fail-stop machinery (kill schedule,
// detection, op counting) is configured; only then are the per-array
// disks' operation hooks installed, keeping plain runs at zero overhead.
func (o Options) failureActive() bool {
	return len(o.Kill) > 0 || o.Detect != nil || o.OpCounts != nil
}

// Result is a completed execution.
type Result struct {
	Stats   *trace.Stats
	Program *plan.Program
	// PerArray holds per-processor, per-array I/O statistics: indexed by
	// rank, then by array name. It lets the Equations 3-6 counts be
	// checked on compiled programs, not just the hand-coded baselines.
	PerArray []map[string]*trace.IOStats

	fs      iosim.FS
	mach    sim.Config
	phantom bool
	res     *iosim.Resilience
	ckpt    *CheckpointSpec
	pstore  *parity.Store
}

// ParityStore returns the run's parity store (nil when Options.Parity was
// off); callers use it to inspect degraded-mode state.
func (r *Result) ParityStore() *parity.Store { return r.pstore }

// Close removes the run's local array files (and checkpoint artifacts, if
// any) from the backing store. Call it when the result's file contents
// are no longer needed; ReadArray stops working afterwards. A non-nil
// error joins every checkpoint-GC failure that was not a missing file, so
// leaked stale snapshots are visible to the caller.
func (r *Result) Close() error {
	removeRunFiles(r.fs, r.Program)
	if r.pstore != nil {
		r.pstore.Close()
	}
	return removeCheckpointFiles(r.fs, r.Program, r.ckpt)
}

// removeRunFiles deletes every local array file the program creates,
// ignoring missing files (error-path and Close cleanup).
func removeRunFiles(fs iosim.FS, p *plan.Program) {
	for _, spec := range p.Arrays {
		for proc := 0; proc < p.Procs; proc++ {
			fs.Remove(fmt.Sprintf("%s.p%d.laf", spec.Name, proc))
		}
	}
}

// MaxArrayIO returns, for the named array, the elementwise maximum of the
// per-processor I/O statistics — the paper's per-processor metrics on a
// balanced program.
func (r *Result) MaxArrayIO(name string) trace.IOStats {
	s := trace.NewStats(len(r.PerArray))
	for i, m := range r.PerArray {
		if st := m[name]; st != nil {
			s.Procs[i].IO = *st
		}
	}
	return s.MaxIO()
}

// reduceTag is the tag used by SumStore reductions.
const reduceTag = 11

// redistTag is the tag used by collective redistributions.
const redistTag = 12

// parityTag is the tag used by the collective parity rebuild barriers.
const parityTag = 14

// Run executes the program on a machine with the program's processor
// count.
func Run(p *plan.Program, mach sim.Config, opts Options) (*Result, error) {
	return RunCtx(context.Background(), p, mach, opts)
}

// RunCtx is Run under a context: a cancelled or expired context stops
// every processor at its next instruction boundary, the run unwinds like
// any other failed attempt (files removed unless checkpointed, slab
// buffers returned to the arena), and the returned error wraps
// ctx.Err(). The check is free on the plain path — context.Background's
// Err is a constant nil.
func RunCtx(ctx context.Context, p *plan.Program, mach sim.Config, opts Options) (*Result, error) {
	bc, err := lower(p)
	if err != nil {
		return nil, err
	}
	res, err := run(ctx, p, bc, mach, opts, nil, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Resume restarts a killed or failed checkpointed run from its last
// globally consistent checkpoint. Options must name the original backing
// FS and the same CheckpointSpec; pass the original Resilience too so
// the checksum store carries over. It returns ErrNoCheckpoint (wrapped)
// when no complete checkpoint epoch exists.
func Resume(p *plan.Program, mach sim.Config, opts Options) (*Result, error) {
	return ResumeCtx(context.Background(), p, mach, opts)
}

// ResumeCtx is Resume under a context, with RunCtx's cancellation
// semantics. The serving layer uses it to resume journaled jobs that
// were RUNNING at crash time without losing per-job deadlines.
func ResumeCtx(ctx context.Context, p *plan.Program, mach sim.Config, opts Options) (*Result, error) {
	if opts.Checkpoint == nil {
		return nil, fmt.Errorf("exec: Resume requires Options.Checkpoint")
	}
	if opts.FS == nil {
		return nil, fmt.Errorf("exec: Resume requires the original Options.FS")
	}
	bc, err := lower(p)
	if err != nil {
		return nil, err
	}
	manifests, err := loadResumeManifests(opts.FS, opts.Checkpoint, p.Procs)
	if err != nil {
		return nil, err
	}
	res, err := run(ctx, p, bc, mach, opts, manifests, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// lower compiles the program to its opcode stream. It runs before any
// rank starts or any file is created, so a plan that cannot be lowered
// fails the run cleanly.
func lower(p *plan.Program) (*bytecode.Program, error) {
	bc, err := bytecode.Lower(p)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	return bc, nil
}

// run executes the lowered program bc of p, optionally restarting every
// processor from its entry in resume (indexed by rank; nil means a fresh
// run). respawned lists ranks restarted after a fail-stop loss — they
// record a respawn instant at attempt start. On failure the partial
// Result (with the attempt's statistics) is returned alongside the error
// so the recovery loop can report and reconcile aborted attempts; the
// exported entry points discard it.
func run(ctx context.Context, p *plan.Program, bc *bytecode.Program, mach sim.Config, opts Options, resume []*ckptManifest, respawned []int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mach.Procs = p.Procs
	fs := opts.FS
	if fs == nil {
		fs = iosim.NewMemFS()
	}
	var pstore *parity.Store
	if opts.Parity {
		pstore = parity.NewStore(fs, mach, p.Procs, opts.Resilience)
		pstore.SetPhantom(opts.Phantom)
		for _, spec := range p.Arrays {
			pstore.Protect(spec.Name)
		}
	}
	shiftInputs := shiftInputsOf(bc)
	perArray := make([]map[string]*trace.IOStats, mach.Procs)
	stats, err := mp.RunOpts(mach, opts.mpOptions(), func(proc *mp.Proc) error {
		proc.SetTracer(opts.Trace.Rank(proc.Rank()))
		for _, r := range respawned {
			if r == proc.Rank() {
				// This rank was lost last attempt and has been respawned:
				// mark the restart so recovery counters reconcile.
				proc.Stats().Comm.Respawns++
				if tr := proc.Tracer(); tr != nil {
					tr.Emit(trace.Span{Kind: trace.KindRespawn, Start: proc.Clock().Seconds()})
				}
			}
		}
		if pstore != nil {
			pstore.SetCommSink(proc.Rank(), &proc.Stats().Comm)
		}
		var man *ckptManifest
		if resume != nil {
			man = resume[proc.Rank()]
		}
		in := newInterp(ctx, p, bc, shiftInputs, proc, fs, opts, pstore)
		perArray[proc.Rank()] = in.perArray
		// Runs last (defers are LIFO): whatever path the run leaves by —
		// success, cancellation, fault abort, plan-bug panic — the slab
		// buffers the executor still holds go back to the arena.
		defer in.releaseBufs()
		// Fold the per-array statistics into the processor total, in
		// sorted-key order so the float sums are reproducible (and match
		// the span replay's fold, which uses the same order). The success
		// path folds at the end of the body; an aborted rank (killed, or
		// unwinding on a peer's death) folds in this handler instead, so
		// even a failed attempt's spans and counters reconcile.
		folded := false
		fold := func() {
			if folded {
				return
			}
			folded = true
			io := &proc.Stats().IO
			names := make([]string, 0, len(in.perArray))
			for name := range in.perArray {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				io.Add(*in.perArray[name])
			}
		}
		defer func() {
			if proc.Aborted() {
				fold()
			}
		}()
		// A dead or aborting rank is fail-stop: it must not flush
		// write-behind buffers or touch its files during the unwind.
		defer func() {
			if !proc.Aborted() {
				in.close()
			}
		}()
		if err := in.initArrays(opts, man); err != nil {
			return err
		}
		startNode, startIter := 0, 0
		if man != nil {
			startNode, startIter = man.NodeIdx, man.Iter
			// Resuming attaches to pre-existing local array files whose
			// parity may be stale (the crash can have interrupted a
			// read-modify-write); rebuild redundancy before computing.
			if err := in.paritySync(); err != nil {
				return err
			}
			if in.statsRestored {
				// The restored state is pre-commit-barrier; replay the
				// barrier so the clocks synchronize exactly as the
				// original run's did at this epoch's commit.
				proc.Barrier(ckptTag)
			}
		}
		if err := in.execute(startNode, startIter); err != nil {
			return err
		}
		// A degraded run (lost parity during a fault) must restore full
		// redundancy before the run is declared complete.
		if err := in.paritySync(); err != nil {
			return err
		}
		fold()
		return nil
	})
	res := &Result{Stats: stats, Program: p, PerArray: perArray, fs: fs, mach: mach,
		phantom: opts.Phantom, res: opts.Resilience, ckpt: opts.Checkpoint, pstore: pstore}
	if err != nil {
		// Without a checkpoint there is nothing to resume from, so a
		// failed run must not leave local array files behind; with one,
		// the files (and the parity protecting them) are the restart
		// state: keep them, releasing only the store's cached handles.
		if opts.Checkpoint == nil {
			removeRunFiles(fs, p)
			if pstore != nil {
				pstore.Close()
			}
		} else if pstore != nil {
			pstore.Detach()
		}
		return res, fmt.Errorf("exec: %w", err)
	}
	return res, nil
}

// ReadArray assembles the named array's global contents from the local
// array files (verification helper; unaccounted).
func (r *Result) ReadArray(name string) (*matrix.Matrix, error) {
	if r.phantom {
		return nil, fmt.Errorf("exec: cannot read arrays from a phantom run")
	}
	spec, ok := r.Program.Array(name)
	if !ok {
		return nil, fmt.Errorf("exec: unknown array %q", name)
	}
	dm, err := spec.DistArray(r.Program.Procs)
	if err != nil {
		return nil, err
	}
	out := matrix.New(spec.Rows, spec.Cols)
	for proc := 0; proc < r.Program.Procs; proc++ {
		disk := iosim.NewResilientDisk(r.fs, r.mach, nil, r.res)
		if r.pstore != nil {
			disk.SetParity(r.pstore)
		}
		laf, err := disk.OpenLAF(fmt.Sprintf("%s.p%d.laf", name, proc), int64(dm.LocalElems(proc)))
		if err != nil {
			return nil, err
		}
		data, _, err := laf.ReadAll()
		laf.Close()
		if err != nil {
			return nil, err
		}
		shape := dm.LocalShape(proc)
		rows, cols := shape[0], shape[1]
		for lj := 0; lj < cols; lj++ {
			gj := dm.Dims[1].ToGlobal(dm.ProcCoord(proc, 1), lj)
			for li := 0; li < rows; li++ {
				gi := dm.Dims[0].ToGlobal(dm.ProcCoord(proc, 0), li)
				out.Set(gi, gj, data[lj*rows+li])
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Per-rank executor

// interp executes a lowered opcode stream for one rank. Every name the
// plan uses is a slot or table index here: arrays (with their slabbings,
// writers, staging and auto-staging state) by array-table index, loop
// variables, slab buffers and accumulation vectors by slot, prefetch
// readers by reader slot.
type interp struct {
	ctx     context.Context
	prog    *plan.Program
	bc      *bytecode.Program
	proc    *mp.Proc
	phantom bool
	fs      iosim.FS
	res     *iosim.Resilience
	pstore  *parity.Store

	// ckptSpec/ckptEpoch drive checkpointing; ckptSpec is nil when
	// checkpointing is off. ckptHook observes committed epochs on rank 0;
	// restoreStats requests exact clock/counter restoration on resume and
	// statsRestored records that it actually happened (the manifest
	// carried a stats snapshot).
	ckptSpec      *CheckpointSpec
	ckptEpoch     int
	ckptHook      func(epoch int)
	restoreStats  bool
	statsRestored bool

	// tab holds the per-array state, by array-table index.
	tab []arrayState

	// counter is the implicit global column counter of SumStore.
	counter int

	// Slot tables.
	vars []int
	bufs []*oocarray.ICLA
	vecs [][]float64

	// Prefetch readers, one slot per stream-marked LOAD_SLAB, and the
	// slab index each will deliver next.
	readers    []*oocarray.SlabReader
	readerNext []int

	// frames is the live loop stack.
	frames []bcFrame

	// shiftInputs holds, per expression program, the distinct arrays its
	// shifted reads reference in first-use order: the ghost-exchange
	// order, which fixes the message tags. Shared read-only by all ranks.
	shiftInputs [][]int32

	// estack is the expression evaluation scratch stack, sized once to
	// the deepest expression in the program.
	estack [][]float64

	// perArray attributes I/O statistics to individual arrays.
	perArray map[string]*trace.IOStats
}

// arrayState is one array's runtime state on a rank.
type arrayState struct {
	arr  *oocarray.Array
	slab oocarray.Slabbing
	// writer is the write-behind pipeline (nil unless
	// Options.Runtime.WriteBehind is set).
	writer *oocarray.SlabWriter
	// staging is the output array's current staging buffer.
	staging *oocarray.ICLA
	// autoOn marks AutoStage arrays; autoIdx is their counter-driven
	// slab index (-1 when none is active).
	autoOn  bool
	autoIdx int
}

// newInterp builds the executor shell; initArrays creates the arrays.
// The split lets the rank closure register the per-array statistics map
// before any I/O happens, so even a rank killed during array fill leaves
// reconcilable statistics behind.
func newInterp(ctx context.Context, p *plan.Program, bc *bytecode.Program, shiftInputs [][]int32, proc *mp.Proc, fs iosim.FS, opts Options, pstore *parity.Store) *interp {
	na := len(bc.Arrays)
	return &interp{
		ctx:          ctx,
		prog:         p,
		bc:           bc,
		proc:         proc,
		phantom:      opts.Phantom,
		fs:           fs,
		res:          opts.Resilience,
		pstore:       pstore,
		ckptSpec:     opts.Checkpoint,
		ckptHook:     opts.CkptHook,
		restoreStats: opts.RestoreStats,
		tab:          make([]arrayState, na),
		vars:         make([]int, len(bc.VarNames)),
		bufs:         make([]*oocarray.ICLA, len(bc.BufNames)),
		vecs:         make([][]float64, len(bc.VecNames)),
		readers:      make([]*oocarray.SlabReader, bc.Readers),
		readerNext:   make([]int, bc.Readers),
		shiftInputs:  shiftInputs,
		estack:       make([][]float64, 0, bc.MaxExprDepth()),
		perArray:     make(map[string]*trace.IOStats, na),
	}
}

// shiftInputsOf lists, per expression program of bc, the distinct arrays
// its shifted reads reference, in first-use order.
func shiftInputsOf(bc *bytecode.Program) [][]int32 {
	out := make([][]int32, len(bc.Exprs))
	for i, code := range bc.Exprs {
		for _, ins := range code {
			if ins.Op == bytecode.EPushShift && !slices.Contains(out[i], ins.A) {
				out[i] = append(out[i], ins.A)
			}
		}
	}
	return out
}

// arrayIndexOf resolves an array name (from a checkpoint manifest or the
// plan body) to its array-table index.
func (in *interp) arrayIndexOf(name string) (int, error) {
	for i, spec := range in.bc.Arrays {
		if spec.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("exec: unknown array %q", name)
}

// array resolves an array name to the rank's local array.
func (in *interp) array(name string) (*oocarray.Array, error) {
	i, err := in.arrayIndexOf(name)
	if err != nil {
		return nil, err
	}
	return in.tab[i].arr, nil
}

// initArrays creates (or, on resume, reattaches to) the rank's local
// array files and fills input arrays. When fault injection is active the
// array disks feed the processor's op counter, so kills can land between
// I/O operations exactly as they can between message operations.
func (in *interp) initArrays(opts Options, resume *ckptManifest) error {
	p, proc, fs, pstore := in.prog, in.proc, in.fs, in.pstore
	for i, spec := range in.bc.Arrays {
		dm, err := spec.DistArray(p.Procs)
		if err != nil {
			return err
		}
		arrStats := &trace.IOStats{}
		in.perArray[spec.Name] = arrStats
		disk := iosim.NewResilientDisk(fs, proc.Config(), arrStats, opts.Resilience)
		disk.SetPhantom(opts.Phantom)
		disk.SetTracer(proc.Tracer(), proc.Clock(), spec.Name)
		if opts.failureActive() {
			disk.SetOpHook(proc.StepOp)
		}
		if pstore != nil {
			disk.SetParity(pstore)
		}
		var arr *oocarray.Array
		if resume != nil {
			// Resuming: the local array files already exist; attach to
			// them without truncation (their contents are rebuilt from
			// the checkpoint snapshots below).
			arr, err = oocarray.Open(disk, dm, proc.Rank(), proc.Clock(), opts.Runtime)
		} else {
			arr, err = oocarray.New(disk, dm, proc.Rank(), proc.Clock(), opts.Runtime)
		}
		if err != nil {
			return err
		}
		in.tab[i].arr = arr
		in.tab[i].slab = arr.Slabbing(spec.SlabDim, spec.SlabElems)
		if opts.Runtime.WriteBehind {
			in.tab[i].writer = arr.NewSlabWriter()
		}
		if spec.Role == plan.In && !opts.Phantom && resume == nil {
			if fill, ok := opts.Fill[spec.Name]; ok {
				if err := arr.FillGlobal(fill); err != nil {
					return err
				}
			}
		}
	}
	if resume != nil {
		if err := in.restoreFromManifest(resume); err != nil {
			return err
		}
	}
	return nil
}

// parityStatsKey is the perArray key that collects the I/O charged to
// collective parity rebuilds (it is folded into the processor totals like
// any per-array entry).
const parityStatsKey = "(parity)"

// paritySync is a collective that restores full redundancy: if any parity
// group went out of sync (degraded writes, a reconstructed disk's own
// parity file, or a resumed run attaching to files with untrusted
// parity), every rank rebuilds the parity files its logical disk hosts.
// Barriers bracket the rebuild so no rank races a reconstruction against
// a half-rebuilt parity file, and the dirty flags are cleared only once
// every rank has finished.
func (in *interp) paritySync() error {
	if in.pstore == nil {
		return nil
	}
	in.proc.Barrier(parityTag)
	var err error
	if in.pstore.Dirty() {
		st := in.perArray[parityStatsKey]
		if st == nil {
			st = &trace.IOStats{}
			in.perArray[parityStatsKey] = st
		}
		disk := iosim.NewResilientDisk(in.fs, in.proc.Config(), st, in.res)
		disk.SetPhantom(in.phantom)
		disk.SetTracer(in.proc.Tracer(), in.proc.Clock(), parityStatsKey)
		start := in.proc.Clock().Seconds()
		var sec float64
		sec, err = in.pstore.RebuildRank(disk, in.proc.Rank())
		in.proc.Clock().Advance(sec)
		st.Seconds += sec
		if tr := in.proc.Tracer(); tr != nil {
			tr.Emit(trace.Span{Kind: trace.KindParitySync, Label: parityStatsKey, Start: start, Dur: sec})
		}
	}
	in.proc.Barrier(parityTag)
	if err != nil {
		return err
	}
	in.pstore.ClearDirty()
	return nil
}

func (in *interp) close() {
	for _, a := range in.tab {
		if a.writer != nil {
			a.writer.Flush()
		}
	}
	for _, a := range in.tab {
		if a.arr != nil {
			a.arr.Close()
		}
	}
}

// recycle returns a slab buffer to the arena once no slot references it.
// Both tables are small (a handful of buffers), so the alias scan costs
// nothing next to the slab I/O it follows.
func (in *interp) recycle(arr *oocarray.Array, s *oocarray.ICLA) {
	if s == nil {
		return
	}
	if slices.Contains(in.bufs, s) {
		return
	}
	for _, a := range in.tab {
		if a.staging == s {
			return
		}
	}
	arr.Recycle(s)
}

// releaseBufs returns every slab buffer the executor still holds — slot
// buffers, staging slabs, prefetched-but-undelivered reader slabs — to
// the arena. It runs on every exit path (success, cancellation, fault
// abort), so a checked-mode Gets/Puts balance holds across a whole run,
// not just across the collective layers. Tables can alias one ICLA; the
// seen set guarantees a single release.
func (in *interp) releaseBufs() {
	seen := make(map[*oocarray.ICLA]bool, len(in.bufs)+len(in.tab))
	rel := func(s *oocarray.ICLA) {
		if s == nil || seen[s] {
			return
		}
		seen[s] = true
		if s.Data != nil {
			bufpool.PutF64(s.Data)
			s.Data = nil
		}
	}
	for _, s := range in.bufs {
		rel(s)
	}
	for _, a := range in.tab {
		rel(a.staging)
	}
	for _, r := range in.readers {
		if r != nil {
			r.Close()
		}
	}
}
