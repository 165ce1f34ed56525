// Package collio implements collective two-phase I/O in the PASSION
// style: instead of every processor issuing many small requests against
// the distribution it *wants*, all processors first access their local
// array files in the distribution the files *have* — one large contiguous
// run per round — and then exchange elements in memory through
// mp.AllToAll. Disk requests are traded for messages, which is the right
// trade whenever the per-request overhead dominates (Eqs. 3-6 of the
// paper: 15ms per request on the Touchstone Delta vs 80us per message).
//
// The layer offers three destination write strategies so the compiler's
// cost model can choose per statement:
//
//   - Direct: write every conforming run of received elements as its own
//     request (cheapest when the runs are long, e.g. a same-distribution
//     copy).
//   - Sieved: cover the received runs with one span and read-modify-write
//     it (two requests per round, at the price of moving the span twice).
//   - TwoPhase: stage received elements per destination window and flush
//     each window with one contiguous write (plus one contiguous RMW
//     read when the window is only partially produced) — requests become
//     independent of how fragmented the access is.
package collio

import (
	"fmt"
	"sort"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Method selects the destination write strategy of a collective
// redistribution.
type Method int

const (
	// Direct writes each run of consecutive destination elements as its
	// own request.
	Direct Method = iota
	// Sieved covers each round's runs with one span and read-modify-
	// writes it (PASSION write data sieving).
	Sieved
	// TwoPhase stages elements per destination window and flushes every
	// window with one contiguous write.
	TwoPhase
)

// String returns the method name as used in plan hints.
func (m Method) String() string {
	switch m {
	case Direct:
		return "direct"
	case Sieved:
		return "sieved"
	case TwoPhase:
		return "two-phase"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod maps a plan hint back to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "direct":
		return Direct, nil
	case "sieved":
		return Sieved, nil
	case "two-phase", "twophase":
		return TwoPhase, nil
	}
	return 0, fmt.Errorf("collio: unknown method %q (want direct, sieved or two-phase)", s)
}

// Side is one rank's view of a distributed out-of-core array taking part
// in a collective operation: its mapping, its local array file, and the
// local (column-major) shape of that file.
type Side struct {
	Map  *dist.Array
	LAF  *iosim.LAF
	Rank int
	// Rows and Cols are the local array shape on this rank; the LAF
	// stores it column-major.
	Rows, Cols int
	// Charge applies simulated seconds to the rank's clock under a span
	// kind ("io-read"/"io-write"). Nil skips clock accounting.
	Charge func(kind string, seconds float64)
}

func (s Side) charge(kind string, seconds float64) {
	if s.Charge != nil {
		s.Charge(kind, seconds)
	}
}

// SrcSlabWidth returns the conforming-partition slab width in columns for
// phase 1: each round reads one contiguous run of full local columns,
// sized to half the memory budget (the other half is left for staging
// and shuffle buffers).
func SrcSlabWidth(memElems, rows, cols int) int {
	return clampWidth(memElems/2, rows, cols)
}

// WindowWidth returns the destination window width in columns for the
// two-phase writeback: a quarter of the memory budget, so a window's
// staging buffer and its spilled pairs fit alongside a phase-1 slab.
func WindowWidth(memElems, rows, cols int) int {
	return clampWidth(memElems/4, rows, cols)
}

func clampWidth(budget, rows, cols int) int {
	if rows <= 0 || cols <= 0 {
		return 1
	}
	w := budget / rows
	if w < 1 {
		w = 1
	}
	if w > cols {
		w = cols
	}
	return w
}

// pair is one shuffled element: its linear index in the destination
// owner's local array file, and its value.
type pair struct {
	lin int
	val float64
}

// router maps this rank's source elements to their destination owner
// and linear index through per-axis tables built once per call, so the
// shuffle's inner loop is table loads instead of per-element index
// translation. Source element (li, lj) lands on destination owner
// rowRank[li]+colRank[lj] (the two tables hold each axis's share of the
// linearized grid rank); its destination local row and column are
// rowLoc[li] and colLoc[lj], or the other way round under transpose.
type router struct {
	rowRank, rowLoc []int // per source local row
	colRank, colLoc []int // per source local column
	rowsOf          []int // destination local row count per rank
	transpose       bool
	arena           []int // backing store of the tables above
}

// newRouter builds the tables for one rank's source side. Under
// transpose, global element (gi, gj) of src lands at (gj, gi) of dst, so
// the source rows index the destination's column axis and vice versa.
func newRouter(src, dst Side, size int, transpose bool) router {
	r := router{transpose: transpose}
	r.arena = bufpool.GetInts(2*src.Rows + 2*src.Cols + size)
	t := r.arena
	r.rowRank, r.rowLoc, t = t[:src.Rows], t[src.Rows:2*src.Rows], t[2*src.Rows:]
	r.colRank, r.colLoc, t = t[:src.Cols], t[src.Cols:2*src.Cols], t[2*src.Cols:]
	r.rowsOf = t[:size]
	rowDim, colDim := 0, 1
	if transpose {
		rowDim, colDim = 1, 0
	}
	fillAxis(r.rowRank, r.rowLoc, src, 0, dst.Map, rowDim)
	fillAxis(r.colRank, r.colLoc, src, 1, dst.Map, colDim)
	for q := range r.rowsOf {
		// Destination linear indices use the owner's local row count,
		// which under ragged block sizes differs between ranks.
		r.rowsOf[q] = dst.Map.Dims[0].LocalCount(dst.Map.ProcCoord(q, 0))
	}
	return r
}

// fillAxis routes every local index of the source side's dimension sdim
// to dimension ddim of the destination mapping: the owner coordinate
// weighted by its share of the linearized rank, and the local index.
func fillAxis(rank, loc []int, src Side, sdim int, dm *dist.Array, ddim int) {
	sm, coord := src.Map.Dims[sdim], src.Map.ProcCoord(src.Rank, sdim)
	dmap, stride := dm.Dims[ddim], dm.OwnerStride(ddim)
	for l := range loc {
		owner, local := dmap.ToLocal(sm.ToGlobal(coord, l))
		rank[l], loc[l] = owner*stride, local
	}
}

// route appends one slab of source columns [c0, c0+cw), held in data
// column-major, to the per-owner payloads as (destination linear index,
// value) pairs, in column-major source order.
func (r *router) route(parts [][]float64, data []float64, c0, cw int) {
	rows := len(r.rowRank)
	for lj := 0; lj < cw; lj++ {
		col := data[lj*rows : (lj+1)*rows]
		rowRank, rowLoc := r.rowRank[:len(col)], r.rowLoc[:len(col)]
		cRank, cLoc := r.colRank[c0+lj], r.colLoc[c0+lj]
		if r.transpose {
			for li, v := range col {
				owner := rowRank[li] + cRank
				lin := rowLoc[li]*r.rowsOf[owner] + cLoc
				parts[owner] = append(parts[owner], float64(lin), v)
			}
			continue
		}
		for li, v := range col {
			owner := rowRank[li] + cRank
			lin := cLoc*r.rowsOf[owner] + rowLoc[li]
			parts[owner] = append(parts[owner], float64(lin), v)
		}
	}
}

func (r *router) release() { bufpool.PutInts(r.arena) }

// Redistribute copies the distributed array described by src into the one
// described by dst. Global element (gi, gj) of src lands at (gi, gj) of
// dst, or at (gj, gi) when transpose is set; the global shapes must agree
// accordingly. All ranks must call it collectively with the same
// memElems, tag, transpose and method.
//
// Phase 1 is the same for every method: each rank reads its LAF in
// conforming column slabs — one contiguous request per round — and
// routes each element to its destination owner through mp.AllToAll as
// (linear index, value) pairs. The method only decides how the receiving
// rank applies the incoming pairs to its own LAF.
func Redistribute(p *mp.Proc, src, dst Side, memElems, tag int, transpose bool, method Method) error {
	if src.Rank != p.Rank() || dst.Rank != p.Rank() {
		return fmt.Errorf("collio: redistribute on rank %d given sides of ranks %d and %d",
			p.Rank(), src.Rank, dst.Rank)
	}
	sd, dd := src.Map.Dims, dst.Map.Dims
	if len(sd) != 2 || len(dd) != 2 {
		return fmt.Errorf("collio: redistribute needs 2-D arrays, got shapes %v and %v",
			src.Map.GlobalShape(), dst.Map.GlobalShape())
	}
	rowsTo, colsTo := dd[0].Extent, dd[1].Extent
	if transpose {
		rowsTo, colsTo = colsTo, rowsTo
	}
	if sd[0].Extent != rowsTo || sd[1].Extent != colsTo {
		return fmt.Errorf("collio: redistribute (transpose %v) between incompatible global shapes %v and %v",
			transpose, src.Map.GlobalShape(), dst.Map.GlobalShape())
	}
	size := p.Size()

	w := SrcSlabWidth(memElems, src.Rows, src.Cols)
	myRounds := 0
	if src.Rows > 0 && src.Cols > 0 {
		myRounds = (src.Cols + w - 1) / w
	}
	// Ranks may own different column counts; everyone participates in the
	// collective for the maximum round count.
	rm := p.AllReduceMax(tag, []float64{float64(myRounds)})
	rounds := int(rm[0])
	mp.ReleaseBuf(rm)

	recv, err := newReceiver(dst, memElems, method)
	if err != nil {
		return err
	}
	defer recv.cleanup()
	rt := newRouter(src, dst, size, transpose)
	defer rt.release()

	// phase brackets each stage of a round with an overlay span, so the
	// exported timeline shows where a redistribution's time goes without
	// touching the reconciled leaf spans recorded underneath.
	tr, clock := p.Tracer(), p.Clock()
	phase := func(label string, start float64) {
		if tr == nil {
			return
		}
		if now := clock.Seconds(); now > start {
			tr.Emit(trace.Span{Kind: trace.KindPhase, Label: label, Start: start, Dur: now - start})
		}
	}

	buf := bufpool.GetF64(src.Rows * w)
	defer bufpool.PutF64(buf)
	if src.LAF.Disk().Phantom() {
		// Phantom reads leave the slab untouched; the pooled buffer must
		// start out zeroed like the make it replaced.
		clear(buf)
	}
	// parts, pairs and the per-round shuffle payloads are reused across
	// rounds: lengths reset, capacities kept, so steady-state rounds stop
	// allocating.
	parts := make([][]float64, size)
	var pairs []pair
	for round := 0; round < rounds; round++ {
		t0 := clock.Seconds()
		for q := range parts {
			parts[q] = parts[q][:0]
		}
		if round < myRounds {
			c0 := round * w
			cw := src.Cols - c0
			if cw > w {
				cw = w
			}
			data := buf[:src.Rows*cw]
			sec, err := src.LAF.ReadChunks([]iosim.Chunk{{Off: int64(c0) * int64(src.Rows), Len: len(data)}}, data)
			if err != nil {
				return err
			}
			src.charge("io-read", sec)
			rt.route(parts, data, c0, cw)
		}
		phase("collio:read", t0)
		t1 := clock.Seconds()
		incoming := p.AllToAll(tag, parts)
		phase("collio:shuffle", t1)
		t2 := clock.Seconds()
		pairs = pairs[:0]
		for i, in := range incoming {
			if len(in)%2 != 0 {
				// The payloads are arena buffers: release the rest of the
				// round before failing or the error path leaks them.
				for _, rest := range incoming[i:] {
					mp.ReleaseBuf(rest)
				}
				return fmt.Errorf("collio: redistribute payload of %d values is not index/value pairs", len(in))
			}
			for i := 0; i < len(in); i += 2 {
				pairs = append(pairs, pair{lin: int(in[i]), val: in[i+1]})
			}
			mp.ReleaseBuf(in)
		}
		if err := recv.absorb(pairs); err != nil {
			return err
		}
		phase("collio:write", t2)
	}
	tEnd := clock.Seconds()
	if err := recv.finish(); err != nil {
		return err
	}
	phase("collio:write", tEnd)
	return nil
}

// receiver applies each round's incoming pairs to the destination LAF
// under one of the write strategies.
type receiver interface {
	absorb(pairs []pair) error
	finish() error
	cleanup()
}

func newReceiver(dst Side, memElems int, method Method) (receiver, error) {
	switch method {
	case Direct:
		return &runReceiver{dst: dst}, nil
	case Sieved:
		return &runReceiver{dst: dst, sieve: true}, nil
	case TwoPhase:
		return newTwoPhaseReceiver(dst, memElems)
	}
	return nil, fmt.Errorf("collio: unknown method %d", int(method))
}

// runReceiver writes each round's pairs immediately, either run by run
// (Direct) or through a spanning read-modify-write (Sieved). The
// coalesce scratch is reused across rounds.
type runReceiver struct {
	dst    Side
	sieve  bool
	chunks []iosim.Chunk
	vals   []float64
}

func (r *runReceiver) absorb(pairs []pair) error {
	if len(pairs) == 0 {
		return nil
	}
	r.chunks, r.vals = coalescePairs(pairs, r.chunks[:0], r.vals[:0])
	var sec float64
	var err error
	if r.sieve {
		sec, err = AggregateWrite(r.dst.LAF, r.chunks, r.vals)
	} else {
		sec, err = r.dst.LAF.WriteChunks(r.chunks, r.vals)
	}
	if err != nil {
		return err
	}
	r.dst.charge("io-write", sec)
	return nil
}

func (r *runReceiver) finish() error { return nil }
func (r *runReceiver) cleanup()      {}

// coalescePairs sorts the pairs by destination index and merges
// consecutive indices into contiguous chunks, returning the chunks and
// the values packed in chunk order, appended to the passed-in scratch
// slices. Duplicate indices are kept in arrival order (each starts a
// fresh one-element chunk), so the last writer wins as it would element
// by element.
func coalescePairs(pairs []pair, chunks []iosim.Chunk, vals []float64) ([]iosim.Chunk, []float64) {
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].lin < pairs[j].lin })
	for i, pr := range pairs {
		vals = append(vals, pr.val)
		if i > 0 && pr.lin == pairs[i-1].lin+1 {
			chunks[len(chunks)-1].Len++
		} else {
			chunks = append(chunks, iosim.Chunk{Off: int64(pr.lin), Len: 1})
		}
	}
	return chunks, vals
}

// twoPhaseReceiver stages incoming pairs per destination window (a run
// of local columns sized by WindowWidth) and flushes each window with a
// single contiguous write at the end. When twice the local array fits in
// the memory budget the pairs stay in memory; otherwise they spill to a
// scratch file on the same disk, appended contiguously per window, which
// keeps every scratch access a single-request transfer too.
type twoPhaseReceiver struct {
	dst    Side
	winW   int
	nWin   int
	inMem  bool
	counts []int // pairs received per window
	base   []int64
	elems  []int
	bufs   [][]float64 // in-memory regime: pair floats per window
	per    [][]float64 // absorb scratch: pair floats per window, reused per round

	scratch     *iosim.LAF
	scratchName string
	off         []int64 // scratch region start per window, in floats
	spilled     []int64 // floats appended so far per window
}

func newTwoPhaseReceiver(dst Side, memElems int) (*twoPhaseReceiver, error) {
	rows, cols := dst.Rows, dst.Cols
	local := rows * cols
	r := &twoPhaseReceiver{dst: dst}
	r.winW = WindowWidth(memElems, rows, cols)
	if local > 0 {
		r.nWin = (cols + r.winW - 1) / r.winW
	}
	r.inMem = local == 0 || 2*local <= memElems
	r.counts = make([]int, r.nWin)
	r.base = make([]int64, r.nWin)
	r.elems = make([]int, r.nWin)
	r.off = make([]int64, r.nWin)
	var acc int64
	for wdx := 0; wdx < r.nWin; wdx++ {
		c0 := wdx * r.winW
		cw := cols - c0
		if cw > r.winW {
			cw = r.winW
		}
		r.base[wdx] = int64(c0) * int64(rows)
		r.elems[wdx] = rows * cw
		r.off[wdx] = acc
		acc += 2 * int64(rows*cw)
	}
	if r.inMem {
		r.bufs = make([][]float64, r.nWin)
		return r, nil
	}
	r.spilled = make([]int64, r.nWin)
	r.scratchName = fmt.Sprintf("%s.p%d.collio.scratch", dst.Map.Name, dst.Rank)
	scratch, err := dst.LAF.Disk().CreateLAF(r.scratchName, acc)
	if err != nil {
		return nil, err
	}
	r.scratch = scratch
	return r, nil
}

func (r *twoPhaseReceiver) absorb(pairs []pair) error {
	if len(pairs) == 0 {
		return nil
	}
	winElems := r.dst.Rows * r.winW
	if r.per == nil {
		r.per = make([][]float64, r.nWin)
	}
	per := r.per
	for i := range per {
		per[i] = per[i][:0]
	}
	for _, pr := range pairs {
		wdx := 0
		if winElems > 0 {
			wdx = pr.lin / winElems
		}
		if wdx < 0 || wdx >= r.nWin {
			return fmt.Errorf("collio: destination index %d outside local array of %d elements",
				pr.lin, r.dst.Rows*r.dst.Cols)
		}
		per[wdx] = append(per[wdx], float64(pr.lin), pr.val)
		r.counts[wdx]++
	}
	if r.inMem {
		for wdx, fl := range per {
			r.bufs[wdx] = append(r.bufs[wdx], fl...)
		}
		return nil
	}
	for wdx, fl := range per {
		if len(fl) == 0 {
			continue
		}
		if r.spilled[wdx]+int64(len(fl)) > 2*int64(r.elems[wdx]) {
			return fmt.Errorf("collio: window %d received more elements than it holds (replicated source?)", wdx)
		}
		sec, err := r.scratch.WriteChunks([]iosim.Chunk{{Off: r.off[wdx] + r.spilled[wdx], Len: len(fl)}}, fl)
		if err != nil {
			return err
		}
		r.dst.charge("io-write", sec)
		r.spilled[wdx] += int64(len(fl))
	}
	return nil
}

func (r *twoPhaseReceiver) finish() error {
	// In phantom (accounting-only) mode scratch reads return zeros, not
	// the indices written, so the scatter must be skipped; every request
	// is still issued and counted identically.
	phantom := r.dst.LAF.Disk().Phantom()
	for wdx := 0; wdx < r.nWin; wdx++ {
		if r.elems[wdx] == 0 {
			continue
		}
		var pairFloats, pooledPF []float64
		if r.inMem {
			pairFloats = r.bufs[wdx]
		} else if r.spilled[wdx] > 0 {
			pooledPF = bufpool.GetF64(int(r.spilled[wdx]))
			pairFloats = pooledPF
			sec, err := r.scratch.ReadChunks([]iosim.Chunk{{Off: r.off[wdx], Len: len(pairFloats)}}, pairFloats)
			if err != nil {
				bufpool.PutF64(pooledPF)
				return err
			}
			r.dst.charge("io-read", sec)
		}
		// Cleared, never merely overwritten: with duplicate destination
		// indices the received count can reach the window size without
		// covering every element, so untouched elements must read as the
		// zeros make used to provide.
		staging := bufpool.GetF64(r.elems[wdx])
		clear(staging)
		release := func() {
			bufpool.PutF64(staging)
			bufpool.PutF64(pooledPF)
		}
		win := []iosim.Chunk{{Off: r.base[wdx], Len: r.elems[wdx]}}
		if r.counts[wdx] < r.elems[wdx] {
			// The window was only partially produced: pre-read it so the
			// untouched elements survive the full-window writeback. One
			// extra contiguous request.
			sec, err := r.dst.LAF.ReadChunks(win, staging)
			if err != nil {
				release()
				return err
			}
			r.dst.charge("io-read", sec)
		}
		if !phantom {
			for i := 0; i+1 < len(pairFloats); i += 2 {
				lin := int(pairFloats[i]) - int(r.base[wdx])
				if lin < 0 || lin >= len(staging) {
					release()
					return fmt.Errorf("collio: staged index %d outside window %d", int(pairFloats[i]), wdx)
				}
				staging[lin] = pairFloats[i+1]
			}
		}
		sec, err := r.dst.LAF.WriteChunks(win, staging)
		release()
		if err != nil {
			return err
		}
		r.dst.charge("io-write", sec)
	}
	return nil
}

func (r *twoPhaseReceiver) cleanup() {
	if r.scratch == nil {
		return
	}
	r.scratch.Close()
	r.dst.LAF.Disk().RemoveLAF(r.scratchName)
	r.scratch = nil
}
