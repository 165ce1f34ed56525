package iosim

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// ParityHook maintains cross-disk redundancy for protected files and
// reconstructs them after permanent faults (implemented by the
// internal/parity package and attached per disk by the executor). The
// disk layer consults it on every file lifecycle event and write, and
// escalates to Recover when an operation fails with a non-transient
// error — a lost disk, an injected permanent fault, or an exhausted
// retry budget.
type ParityHook interface {
	// Created registers a freshly created (zero-filled) file of the
	// given physical byte length.
	Created(name string, bytes int64)
	// Opened registers a pre-existing file of the given physical byte
	// length whose parity state is unknown (e.g. after a restart); the
	// hook marks its group for a parity resync.
	Opened(name string, bytes int64)
	// Removed unregisters a deleted file.
	Removed(name string)
	// Protects reports whether the named file is under parity.
	Protects(name string) bool
	// WriteThrough performs the data write via write() under the parity
	// layer's stripe lock and applies the read-modify-write parity
	// update for the buf bytes written at byteOff. In phantom mode buf
	// is nil: no data moves, but the parity traffic is still accounted.
	// It returns the simulated seconds of the data write plus the
	// parity maintenance.
	WriteThrough(d *Disk, name string, byteOff int64, n int64, buf []byte, write func() (float64, error)) (float64, error)
	// Recover reconstructs the named file from the surviving disks
	// after cause (a non-transient failure), returning the simulated
	// seconds the reconstruction cost. The caller then reopens the
	// replacement file and retries the failed operation once.
	Recover(d *Disk, name string, cause error) (float64, error)
}

// Disk is one processor's logical disk: a view of the shared I/O subsystem
// holding that processor's local array files. All cost accounting happens
// here; the mapping of the logical disk onto physical disks is the
// machine's business (sim.Config's bandwidth model).
type Disk struct {
	fs      FS
	cfg     sim.Config
	stats   *trace.IOStats
	res     *Resilience
	parity  ParityHook
	phantom bool

	// tr, clock and label drive span tracing: every counter bump above
	// also emits a typed span stamped with the simulated time, under the
	// same stats-gating, so spans and counters reconcile exactly.
	tr    *trace.RankTracer
	clock *sim.Clock
	label string
	// deferred marks transfers issued by an overlap pipeline (prefetch,
	// write-behind) whose cost reaches the clock later as io-wait.
	deferred bool
	// opHook, when set, runs at the entry of every chunk operation. The
	// executor wires it to the processor's fail-stop operation counter so
	// injected kills can land between I/O requests, not only between
	// messages. Nil on plain runs: a single branch on the hot path.
	opHook func()
}

// NewDisk returns a logical disk for one processor. stats may be nil, in
// which case accounting is skipped.
func NewDisk(fs FS, cfg sim.Config, stats *trace.IOStats) *Disk {
	return &Disk{fs: fs, cfg: cfg, stats: stats}
}

// NewResilientDisk returns a logical disk whose transfers retry transient
// faults with capped exponential backoff (charged to the simulated clock
// through the returned durations) and verify block checksums on reads.
// res may be nil, which degrades to NewDisk behaviour.
func NewResilientDisk(fs FS, cfg sim.Config, stats *trace.IOStats, res *Resilience) *Disk {
	return &Disk{fs: fs, cfg: cfg, stats: stats, res: res}
}

// Resilience returns the attached retry/checksum layer, which may be nil.
func (d *Disk) Resilience() *Resilience { return d.res }

// SetParity attaches (or, with nil, detaches) the redundancy layer.
func (d *Disk) SetParity(h ParityHook) { d.parity = h }

// Parity returns the attached redundancy layer, which may be nil.
func (d *Disk) Parity() ParityHook { return d.parity }

// Config returns the disk's machine model (the parity layer uses it to
// charge its traffic with the same timing rules as everything else).
func (d *Disk) Config() sim.Config { return d.cfg }

// retryMeta runs a metadata operation (create/open/remove/truncate) under
// the retry policy. Metadata retries are counted but not charged to the
// simulated clock: the cost model only times data transfers.
func (d *Disk) retryMeta(op, name string, f func() error) error {
	if d.res == nil {
		return f()
	}
	pol := d.res.Policy
	for attempt := 0; ; attempt++ {
		err := f()
		if err == nil || !IsTransient(err) {
			return err
		}
		if attempt >= pol.MaxRetries {
			if s := d.stats; s != nil {
				s.GiveUps++
				if tr := d.tracer(); tr != nil {
					tr.Emit(trace.Span{Kind: trace.KindGiveUp, Label: d.label, Start: d.clock.Seconds()})
				}
			}
			return &ExhaustedError{Op: op, File: name, Attempts: attempt + 1, Last: err}
		}
		if s := d.stats; s != nil {
			s.Retries++
			if tr := d.tracer(); tr != nil {
				// Metadata retries are uncharged, so the span has no
				// duration — it reconciles with Retries but adds nothing
				// to RetrySeconds.
				tr.Emit(trace.Span{Kind: trace.KindRetry, Label: d.label, Start: d.clock.Seconds()})
			}
		}
	}
}

// SetPhantom toggles accounting-only mode: operations count slab
// transfers, requests, bytes and simulated time exactly as usual but skip
// the actual movement of file data (buffers are left untouched). It makes
// paper-scale parameter sweeps cheap; correctness is established by
// real-mode runs at smaller scales.
func (d *Disk) SetPhantom(on bool) { d.phantom = on }

// SetOpHook installs (or, with nil, removes) the per-chunk-operation
// hook; see the field comment.
func (d *Disk) SetOpHook(h func()) { d.opHook = h }

// stepOp runs the per-operation hook, if any.
func (d *Disk) stepOp() {
	if d.opHook != nil {
		d.opHook()
	}
}

// Phantom reports whether accounting-only mode is active.
func (d *Disk) Phantom() bool { return d.phantom }

// Stats returns the statistics sink, which may be nil.
func (d *Disk) Stats() *trace.IOStats { return d.stats }

// SetTracer attaches the span sink for this disk's operations: spans are
// stamped against clock and labelled with the statistics sink's name
// (the array name in the executor). Either argument nil disables
// tracing.
func (d *Disk) SetTracer(rt *trace.RankTracer, clock *sim.Clock, label string) {
	if rt == nil || clock == nil {
		d.tr, d.clock, d.label = nil, nil, ""
		return
	}
	d.tr, d.clock, d.label = rt, clock, label
}

// SetDeferred marks subsequently emitted transfer spans as overlapped:
// issued now, but charged to the clock later by the caller's pipeline.
func (d *Disk) SetDeferred(on bool) { d.deferred = on }

// tracer gates span emission exactly like the counters are gated: a
// disk without a statistics sink (Quiet views, verification I/O,
// checkpoint snapshots) stays silent in the trace too.
func (d *Disk) tracer() *trace.RankTracer {
	if d.stats == nil {
		return nil
	}
	return d.tr
}

// TraceSink exposes the gated span sink, the current simulated time and
// the sink label to the parity layer, which emits its accounting spans
// through the disk that carries the protected write.
func (d *Disk) TraceSink() (*trace.RankTracer, float64, string) {
	if d.stats == nil || d.tr == nil {
		return nil, 0, ""
	}
	return d.tr, d.clock.Seconds(), d.label
}

// LAF is a Local Array File: the on-disk image of one processor's
// out-of-core local array, a flat sequence of float64 elements.
type LAF struct {
	disk *Disk
	file File
	name string
	// elems is the file length in elements.
	elems int64
}

// CreateLAF creates a local array file holding elems zero elements.
func (d *Disk) CreateLAF(name string, elems int64) (*LAF, error) {
	if elems < 0 {
		return nil, fmt.Errorf("iosim: CreateLAF %s: negative size %d", name, elems)
	}
	laf, err := d.createLAFOnce(name, elems)
	if err != nil && !IsTransient(err) && d.parity != nil && d.parity.Protects(name) {
		// The disk died under the create itself (e.g. a disk loss took the
		// half-created file with it). The file held no data yet, so there
		// is nothing to reconstruct: creating again mounts the replacement
		// disk and starts over.
		laf, err = d.createLAFOnce(name, elems)
	}
	return laf, err
}

func (d *Disk) createLAFOnce(name string, elems int64) (*LAF, error) {
	var f File
	err := d.retryMeta("create", name, func() error {
		var err error
		f, err = d.fs.Create(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	if d.phantom {
		if d.parity != nil {
			d.parity.Created(name, elems*elemBytes)
		}
		return &LAF{disk: d, file: f, name: name, elems: elems}, nil
	}
	if err := d.retryMeta("truncate", name, func() error { return f.Truncate(elems * elemBytes) }); err != nil {
		f.Close()
		return nil, err
	}
	if d.res != nil {
		// The file is all zeros now; seed its checksums so every block
		// verifies from the first read on.
		d.res.seedZero(name, elems*elemBytes)
	}
	if d.parity != nil {
		d.parity.Created(name, elems*elemBytes)
	}
	return &LAF{disk: d, file: f, name: name, elems: elems}, nil
}

// OpenLAF opens an existing local array file of the given length. When the
// file is parity-protected and the open fails permanently (the disk that
// held it is gone), the file is reconstructed from the surviving disks and
// the open is retried once; the reconstruction time is charged to the
// disk's statistics sink.
func (d *Disk) OpenLAF(name string, elems int64) (*LAF, error) {
	var f File
	open := func() error {
		return d.retryMeta("open", name, func() error {
			var err error
			f, err = d.fs.Open(name)
			return err
		})
	}
	err := open()
	if err != nil && !IsTransient(err) && d.parity != nil && d.parity.Protects(name) {
		sec, rerr := d.parity.Recover(d, name, err)
		if s := d.stats; s != nil {
			s.Seconds += sec
			if tr := d.tracer(); tr != nil {
				// Charged to IOStats.Seconds without a clock advance, so
				// the span is off the synchronous timeline (Deferred).
				tr.Emit(trace.Span{Kind: trace.KindOpenRecover, Label: d.label, Start: d.clock.Seconds(), Dur: sec, Deferred: true})
			}
		}
		if rerr != nil {
			return nil, rerr
		}
		err = open()
	}
	if err != nil {
		return nil, err
	}
	if d.parity != nil {
		d.parity.Opened(name, elems*elemBytes)
	}
	return &LAF{disk: d, file: f, name: name, elems: elems}, nil
}

// RemoveLAF deletes a local array file by name.
func (d *Disk) RemoveLAF(name string) error {
	err := d.retryMeta("remove", name, func() error { return d.fs.Remove(name) })
	if err == nil {
		if d.res != nil {
			d.res.dropFile(name)
		}
		if d.parity != nil {
			d.parity.Removed(name)
		}
	}
	return err
}

// Name returns the file name.
func (l *LAF) Name() string { return l.name }

// Disk returns the logical disk the file lives on. The collective I/O
// layer uses it to create scratch files that share the array's cost
// accounting.
func (l *LAF) Disk() *Disk { return l.disk }

// Quiet returns a view of the same file that performs no statistics
// accounting (and whose returned durations should be discarded). It is
// used for initialization and verification I/O, which the paper's
// measurements exclude.
func (l *LAF) Quiet() *LAF {
	quiet := *l.disk
	quiet.stats = nil
	return &LAF{disk: &quiet, file: l.file, name: l.name, elems: l.elems}
}

// Elems returns the file length in elements.
func (l *LAF) Elems() int64 { return l.elems }

// Close releases the underlying file.
func (l *LAF) Close() error { return l.file.Close() }

// checkChunks validates that every chunk lies within the file.
func (l *LAF) checkChunks(chunks []Chunk, buf []float64) error {
	need := TotalLen(chunks)
	if need > len(buf) {
		return fmt.Errorf("iosim: %s: chunks cover %d elements, buffer holds %d", l.name, need, len(buf))
	}
	for _, c := range chunks {
		if c.Off < 0 || c.Len < 0 || c.Off+int64(c.Len) > l.elems {
			return fmt.Errorf("iosim: %s: chunk [%d,+%d) outside file of %d elements", l.name, c.Off, c.Len, l.elems)
		}
	}
	return nil
}

// modelBytes converts an element count into cost-model bytes.
func (l *LAF) modelBytes(elems int) int64 {
	return int64(elems) * int64(l.disk.cfg.ElemSize)
}

// ReadChunks reads the given chunks into dst (packed back to back, in
// chunk order) as one slab fetch. It returns the simulated duration of the
// operation; the caller decides how to apply it to the processor clock
// (immediately, or overlapped by a prefetch pipeline).
func (l *LAF) ReadChunks(chunks []Chunk, dst []float64) (float64, error) {
	l.disk.stepOp()
	if err := l.checkChunks(chunks, dst); err != nil {
		return 0, err
	}
	pos := 0
	var retrySec float64
	for _, c := range chunks {
		sec, err := l.readRun(c, dst[pos:pos+c.Len])
		retrySec += sec
		if err != nil {
			return 0, err
		}
		pos += c.Len
	}
	elems := TotalLen(chunks)
	seconds := l.disk.cfg.IOTime(len(chunks), l.modelBytes(elems)) + retrySec
	if s := l.disk.stats; s != nil {
		s.SlabReads++
		s.ReadRequests += int64(len(chunks))
		s.BytesRead += l.modelBytes(elems)
		s.Seconds += seconds
		for _, c := range chunks {
			s.ReadSizes.Observe(l.modelBytes(c.Len))
		}
		if tr := l.disk.tracer(); tr != nil {
			now := l.disk.clock.Seconds()
			for _, c := range chunks {
				tr.Emit(trace.Span{Kind: trace.KindReadReq, Label: l.disk.label, Start: now, Bytes: l.modelBytes(c.Len)})
			}
			tr.Emit(trace.Span{Kind: trace.KindSlabRead, Label: l.disk.label, Start: now, Dur: seconds,
				Deferred: l.disk.deferred, N: int64(len(chunks)), Bytes: l.modelBytes(elems)})
		}
	}
	return seconds, nil
}

// ReadChunksSieved reads the single contiguous span covering all chunks in
// one request (PASSION-style data sieving), then extracts the requested
// chunks into dst. It trades extra data volume for a single request.
func (l *LAF) ReadChunksSieved(chunks []Chunk, dst []float64) (float64, error) {
	l.disk.stepOp()
	if err := l.checkChunks(chunks, dst); err != nil {
		return 0, err
	}
	if len(chunks) == 0 {
		return 0, nil
	}
	span := Span(chunks)
	if span.Off < 0 || span.Off+int64(span.Len) > l.elems {
		return 0, fmt.Errorf("iosim: %s: sieve span [%d,+%d) outside file", l.name, span.Off, span.Len)
	}
	buf := bufpool.GetF64(span.Len)
	defer bufpool.PutF64(buf)
	if l.disk.phantom {
		// The pooled buffer carries stale contents; phantom mode relied on
		// make's zeroing for the untouched span.
		clear(buf)
	}
	retrySec, err := l.readRun(span, buf)
	if err != nil {
		return 0, err
	}
	pos := 0
	for _, c := range chunks {
		copy(dst[pos:pos+c.Len], buf[c.Off-span.Off:])
		pos += c.Len
	}
	seconds := l.disk.cfg.IOTime(1, l.modelBytes(span.Len)) + retrySec
	if s := l.disk.stats; s != nil {
		s.SlabReads++
		s.ReadRequests++
		s.BytesRead += l.modelBytes(span.Len)
		s.Seconds += seconds
		s.ReadSizes.Observe(l.modelBytes(span.Len))
		if tr := l.disk.tracer(); tr != nil {
			now := l.disk.clock.Seconds()
			tr.Emit(trace.Span{Kind: trace.KindReadReq, Label: l.disk.label, Start: now, Bytes: l.modelBytes(span.Len)})
			tr.Emit(trace.Span{Kind: trace.KindSlabRead, Label: l.disk.label, Start: now, Dur: seconds,
				Deferred: l.disk.deferred, N: 1, Bytes: l.modelBytes(span.Len)})
		}
	}
	return seconds, nil
}

// WriteChunksSieved writes the chunks using PASSION-style write data
// sieving: the covering span is read, the chunks are scattered into it,
// and the span is written back — a read-modify-write cycle of exactly two
// requests regardless of how fragmented the chunks are, at the price of
// moving the whole span twice.
func (l *LAF) WriteChunksSieved(chunks []Chunk, src []float64) (float64, error) {
	l.disk.stepOp()
	if err := l.checkChunks(chunks, src); err != nil {
		return 0, err
	}
	if len(chunks) == 0 {
		return 0, nil
	}
	span := Span(chunks)
	buf := bufpool.GetF64(span.Len)
	defer bufpool.PutF64(buf)
	if l.disk.phantom {
		clear(buf)
	}
	retrySec, err := l.readRun(span, buf)
	if err != nil {
		return 0, err
	}
	pos := 0
	for _, c := range chunks {
		copy(buf[c.Off-span.Off:c.Off-span.Off+int64(c.Len)], src[pos:pos+c.Len])
		pos += c.Len
	}
	wSec, err := l.writeRun(span, buf)
	retrySec += wSec
	if err != nil {
		return 0, err
	}
	spanBytes := l.modelBytes(span.Len)
	seconds := l.disk.cfg.IOTime(2, 2*spanBytes) + retrySec
	if s := l.disk.stats; s != nil {
		s.SlabWrites++
		s.ReadRequests++
		s.WriteRequests++
		s.BytesRead += spanBytes
		s.BytesWritten += spanBytes
		s.Seconds += seconds
		s.ReadSizes.Observe(spanBytes)
		s.WriteSizes.Observe(spanBytes)
		if tr := l.disk.tracer(); tr != nil {
			now := l.disk.clock.Seconds()
			tr.Emit(trace.Span{Kind: trace.KindReadReq, Label: l.disk.label, Start: now, Bytes: spanBytes})
			tr.Emit(trace.Span{Kind: trace.KindWriteReq, Label: l.disk.label, Start: now, Bytes: spanBytes})
			tr.Emit(trace.Span{Kind: trace.KindSlabWrite, Label: l.disk.label, Start: now, Dur: seconds,
				Deferred: l.disk.deferred, N: 2, Bytes: 2 * spanBytes})
		}
	}
	return seconds, nil
}

// WriteChunks writes src (packed in chunk order) to the given chunks as
// one slab store and returns the simulated duration.
func (l *LAF) WriteChunks(chunks []Chunk, src []float64) (float64, error) {
	l.disk.stepOp()
	if err := l.checkChunks(chunks, src); err != nil {
		return 0, err
	}
	pos := 0
	var retrySec float64
	for _, c := range chunks {
		sec, err := l.writeRun(c, src[pos:pos+c.Len])
		retrySec += sec
		if err != nil {
			return 0, err
		}
		pos += c.Len
	}
	elems := TotalLen(chunks)
	seconds := l.disk.cfg.IOTime(len(chunks), l.modelBytes(elems)) + retrySec
	if s := l.disk.stats; s != nil {
		s.SlabWrites++
		s.WriteRequests += int64(len(chunks))
		s.BytesWritten += l.modelBytes(elems)
		s.Seconds += seconds
		for _, c := range chunks {
			s.WriteSizes.Observe(l.modelBytes(c.Len))
		}
		if tr := l.disk.tracer(); tr != nil {
			now := l.disk.clock.Seconds()
			for _, c := range chunks {
				tr.Emit(trace.Span{Kind: trace.KindWriteReq, Label: l.disk.label, Start: now, Bytes: l.modelBytes(c.Len)})
			}
			tr.Emit(trace.Span{Kind: trace.KindSlabWrite, Label: l.disk.label, Start: now, Dur: seconds,
				Deferred: l.disk.deferred, N: int64(len(chunks)), Bytes: l.modelBytes(elems)})
		}
	}
	return seconds, nil
}

// ReadAll reads the whole file into a new slice as a single request. It is
// a convenience for verification and redistribution.
func (l *LAF) ReadAll() ([]float64, float64, error) {
	dst := make([]float64, l.elems)
	sec, err := l.ReadChunks([]Chunk{{Off: 0, Len: int(l.elems)}}, dst)
	return dst, sec, err
}

// WriteAll overwrites the whole file from src as a single request.
func (l *LAF) WriteAll(src []float64) (float64, error) {
	if int64(len(src)) != l.elems {
		return 0, fmt.Errorf("iosim: %s: WriteAll with %d elements into file of %d", l.name, len(src), l.elems)
	}
	return l.WriteChunks([]Chunk{{Off: 0, Len: int(l.elems)}}, src)
}

// readRun fetches one contiguous run. It returns the simulated seconds
// spent in retry backoff and recovery (zero on the plain path); the caller
// folds them into the operation's duration so the clock is charged for
// recovery. When the run fails non-transiently on a parity-protected file
// (lost disk, permanent fault, exhausted retries), the file is
// reconstructed from the surviving disks and the run retried once.
func (l *LAF) readRun(c Chunk, dst []float64) (float64, error) {
	sec, err := l.readRunOnce(c, dst)
	if err == nil || IsTransient(err) || !l.protected() {
		return sec, err
	}
	rsec, rerr := l.escalate(err)
	sec += rsec
	if rerr != nil {
		return sec, rerr
	}
	sec2, err := l.readRunOnce(c, dst)
	return sec + sec2, err
}

// readRunOnce is one attempt at a contiguous run, without escalation.
func (l *LAF) readRunOnce(c Chunk, dst []float64) (float64, error) {
	if l.disk.phantom || c.Len == 0 {
		return 0, nil
	}
	if l.disk.res == nil {
		buf := bufpool.GetBytes(c.Len * elemBytes)
		err := l.rawRead(buf, c.Off*elemBytes, func() { decode(dst, buf) })
		bufpool.PutBytes(buf)
		return 0, err
	}
	return l.readRunResilient(c, dst)
}

// protected reports whether this file is under the parity layer.
func (l *LAF) protected() bool {
	return l.disk.parity != nil && l.disk.parity.Protects(l.name)
}

// escalate reconstructs the file from the surviving disks after cause (a
// non-transient failure) and swaps in a handle to the replacement file.
// The returned seconds cover the reconstruction traffic; the caller folds
// them into the failed operation's duration.
func (l *LAF) escalate(cause error) (float64, error) {
	d := l.disk
	sec, err := d.parity.Recover(d, l.name, cause)
	if err != nil {
		return sec, err
	}
	f, err := d.fs.Open(l.name)
	if err != nil {
		return sec, fmt.Errorf("iosim: reopen %s after reconstruction: %w", l.name, err)
	}
	// The old handle points at the lost disk's orphaned image; drop it
	// without closing (Quiet views may still share it harmlessly — every
	// subsequent transfer goes through the swapped handle).
	l.file = f
	return sec, nil
}

// rawRead reads exactly len(buf) bytes at off and runs done on success.
func (l *LAF) rawRead(buf []byte, off int64, done func()) error {
	n, err := l.file.ReadAt(buf, off)
	if err != nil && !(err == io.EOF && n == len(buf)) {
		return fmt.Errorf("iosim: read %s @%d: %w", l.name, off/elemBytes, err)
	}
	if n != len(buf) {
		return fmt.Errorf("iosim: short read on %s @%d: %d of %d bytes", l.name, off/elemBytes, n, len(buf))
	}
	if done != nil {
		done()
	}
	return nil
}

// readRunResilient widens the run to checksum-block boundaries, reads it,
// verifies every touched block against the stored CRC32s, and retries
// transient failures and detected corruption with capped exponential
// backoff. The backoff is returned in simulated seconds.
func (l *LAF) readRunResilient(c Chunk, dst []float64) (float64, error) {
	res := l.disk.res
	pol := res.Policy
	byteOff := c.Off * elemBytes
	byteLen := int64(c.Len) * elemBytes
	lo := byteOff / ChecksumBlockBytes * ChecksumBlockBytes
	hi := (byteOff + byteLen + ChecksumBlockBytes - 1) / ChecksumBlockBytes * ChecksumBlockBytes
	if max := l.elems * elemBytes; hi > max {
		hi = max
	}
	buf := bufpool.GetBytes(int(hi - lo))
	defer bufpool.PutBytes(buf)
	var retrySec float64
	for attempt := 0; ; attempt++ {
		err := l.rawRead(buf, lo, nil)
		if err == nil {
			block, ok := res.verifyBlocks(l.name, lo, buf)
			if ok {
				decode(dst, buf[byteOff-lo:byteOff-lo+byteLen])
				return retrySec, nil
			}
			err = &CorruptionError{File: l.name, Block: block}
			if s := l.disk.stats; s != nil {
				s.Corruptions++
				if tr := l.disk.tracer(); tr != nil {
					tr.Emit(trace.Span{Kind: trace.KindCorruption, Label: l.disk.label, Start: l.disk.clock.Seconds()})
				}
			}
		}
		if !IsTransient(err) {
			if tr := l.disk.tracer(); tr != nil {
				tr.Emit(trace.Span{Kind: trace.KindFault, Label: l.disk.label, Start: l.disk.clock.Seconds()})
			}
			return retrySec, err
		}
		if attempt >= pol.MaxRetries {
			if s := l.disk.stats; s != nil {
				s.GiveUps++
				if tr := l.disk.tracer(); tr != nil {
					tr.Emit(trace.Span{Kind: trace.KindGiveUp, Label: l.disk.label, Start: l.disk.clock.Seconds()})
				}
			}
			return retrySec, &ExhaustedError{Op: "read", File: l.name, Attempts: attempt + 1, Last: err}
		}
		wait := pol.backoff(attempt)
		retrySec += wait
		if s := l.disk.stats; s != nil {
			s.Retries++
			s.RetrySeconds += wait
			if tr := l.disk.tracer(); tr != nil {
				tr.Emit(trace.Span{Kind: trace.KindRetry, Label: l.disk.label, Start: l.disk.clock.Seconds(), Dur: wait})
			}
		}
	}
}

// writeRun stores one contiguous run, returning simulated retry backoff
// (plus parity-maintenance and recovery time) like readRun. Writes to
// parity-protected files are routed through the parity layer's
// WriteThrough so the parity update happens atomically with the data
// write; a non-transient failure triggers reconstruction and one retry of
// the whole protected write.
func (l *LAF) writeRun(c Chunk, src []float64) (float64, error) {
	if c.Len == 0 {
		return 0, nil
	}
	d := l.disk
	byteOff := c.Off * elemBytes
	byteLen := int64(c.Len) * elemBytes
	if l.protected() {
		// In phantom mode buf stays nil: WriteThrough accounts the
		// parity traffic without moving data and never calls write.
		var buf []byte
		if !d.phantom {
			buf = bufpool.GetBytes(int(byteLen))
			defer bufpool.PutBytes(buf)
			encode(buf, src)
		}
		write := func() (float64, error) { return l.writeRunOnce(buf, byteOff) }
		sec, err := d.parity.WriteThrough(d, l.name, byteOff, byteLen, buf, write)
		if err == nil || IsTransient(err) {
			return sec, err
		}
		rsec, rerr := l.escalate(err)
		sec += rsec
		if rerr != nil {
			return sec, rerr
		}
		sec2, err := d.parity.WriteThrough(d, l.name, byteOff, byteLen, buf, write)
		return sec + sec2, err
	}
	if d.phantom {
		return 0, nil
	}
	buf := bufpool.GetBytes(int(byteLen))
	encode(buf, src)
	sec, err := l.writeRunOnce(buf, byteOff)
	bufpool.PutBytes(buf)
	return sec, err
}

// writeRunOnce is one attempt at storing encoded bytes, without parity or
// escalation.
func (l *LAF) writeRunOnce(buf []byte, byteOff int64) (float64, error) {
	if l.disk.res == nil {
		if _, err := l.file.WriteAt(buf, byteOff); err != nil {
			return 0, fmt.Errorf("iosim: write %s @%d: %w", l.name, byteOff/elemBytes, err)
		}
		return 0, nil
	}
	return l.writeRunResilient(buf, byteOff)
}

// writeRunResilient writes the encoded run with retries and refreshes the
// checksum store for every touched block.
func (l *LAF) writeRunResilient(buf []byte, byteOff int64) (float64, error) {
	pol := l.disk.res.Policy
	var retrySec float64
	for attempt := 0; ; attempt++ {
		err := l.rawWrite(buf, byteOff)
		if err == nil {
			l.updateChecksums(byteOff, buf)
			return retrySec, nil
		}
		if !IsTransient(err) {
			if tr := l.disk.tracer(); tr != nil {
				tr.Emit(trace.Span{Kind: trace.KindFault, Label: l.disk.label, Start: l.disk.clock.Seconds()})
			}
			return retrySec, err
		}
		if attempt >= pol.MaxRetries {
			if s := l.disk.stats; s != nil {
				s.GiveUps++
				if tr := l.disk.tracer(); tr != nil {
					tr.Emit(trace.Span{Kind: trace.KindGiveUp, Label: l.disk.label, Start: l.disk.clock.Seconds()})
				}
			}
			return retrySec, &ExhaustedError{Op: "write", File: l.name, Attempts: attempt + 1, Last: err}
		}
		wait := pol.backoff(attempt)
		retrySec += wait
		if s := l.disk.stats; s != nil {
			s.Retries++
			s.RetrySeconds += wait
			if tr := l.disk.tracer(); tr != nil {
				tr.Emit(trace.Span{Kind: trace.KindRetry, Label: l.disk.label, Start: l.disk.clock.Seconds(), Dur: wait})
			}
		}
	}
}

// rawWrite writes exactly len(buf) bytes at off.
func (l *LAF) rawWrite(buf []byte, off int64) error {
	n, err := l.file.WriteAt(buf, off)
	if err != nil {
		return fmt.Errorf("iosim: write %s @%d: %w", l.name, off/elemBytes, err)
	}
	if n != len(buf) {
		return fmt.Errorf("iosim: short write on %s @%d: %d of %d bytes", l.name, off/elemBytes, n, len(buf))
	}
	return nil
}

// updateChecksums refreshes the stored CRC32 of every block touched by a
// successful write of buf at byteOff. Interior blocks hash the written
// bytes directly; partially covered edge blocks are read back and
// double-read for stability, so a corrupted read-back cannot poison the
// store — at worst the block's checksum is dropped and that block goes
// unverified until its next full write.
func (l *LAF) updateChecksums(byteOff int64, buf []byte) {
	res := l.disk.res
	fileBytes := l.elems * elemBytes
	end := byteOff + int64(len(buf))
	first := byteOff / ChecksumBlockBytes
	last := (end - 1) / ChecksumBlockBytes
	for b := first; b <= last; b++ {
		bLo := b * ChecksumBlockBytes
		bHi := bLo + ChecksumBlockBytes
		if bHi > fileBytes {
			bHi = fileBytes
		}
		if bLo >= byteOff && bHi <= end {
			res.set(l.name, b, crc32.ChecksumIEEE(buf[bLo-byteOff:bHi-byteOff]))
			continue
		}
		crc, ok := l.stableEdgeCRC(bLo, bHi, byteOff, buf)
		if !ok {
			res.del(l.name, b)
			continue
		}
		res.set(l.name, b, crc)
	}
}

// stableEdgeCRC computes the checksum of a partially written block: the
// file bytes [bLo, bHi) with the freshly written range [wOff,
// wOff+len(wBuf)) taken from memory. The block is read twice and accepted
// only when the reads agree outside the written range (the written bytes
// come from memory, so their read-back stability is irrelevant) —
// defending the checksum store against transient read-path corruption.
// The CRC is built incrementally over stable head, written middle and
// stable tail, so no overlay copy is materialized; the two read-back
// buffers come from the arena.
func (l *LAF) stableEdgeCRC(bLo, bHi, wOff int64, wBuf []byte) (uint32, bool) {
	oLo, oHi := wOff, wOff+int64(len(wBuf))
	if oLo < bLo {
		oLo = bLo
	}
	if oHi > bHi {
		oHi = bHi
	}
	head, tail := oLo-bLo, oHi-bLo
	attempts := l.disk.res.Policy.MaxRetries + 1
	if attempts < 2 {
		attempts = 2
	}
	a := bufpool.GetBytes(int(bHi - bLo))
	b := bufpool.GetBytes(int(bHi - bLo))
	defer bufpool.PutBytes(a)
	defer bufpool.PutBytes(b)
	for i := 0; i < attempts; i++ {
		if l.rawRead(a, bLo, nil) != nil || l.rawRead(b, bLo, nil) != nil {
			continue
		}
		if !bytes.Equal(a[:head], b[:head]) || !bytes.Equal(a[tail:], b[tail:]) {
			continue
		}
		crc := crc32.Update(0, crc32.IEEETable, a[:head])
		crc = crc32.Update(crc, crc32.IEEETable, wBuf[oLo-wOff:oHi-wOff])
		crc = crc32.Update(crc, crc32.IEEETable, a[tail:])
		return crc, true
	}
	return 0, false
}
