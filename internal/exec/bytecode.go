package exec

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/collio"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/trace"
)

// bcFrame is one live loop of the dispatch loop's stack.
type bcFrame struct {
	varSlot  int32
	loopPC   int32
	ckptNode int32
	count    int
	v        int
}

// execute is the fetch-decode loop, run from the resume cursor
// (startNode, startIter); (0,0) is a fresh run. Control opcodes are
// handled inline; plan opcodes dispatch to their handlers. Every
// instruction is an op boundary for cancellation, so a GAXPY slab's
// whole column sweep (one AXPY_COLS) is a single boundary; on the plain
// path the check is a constant-nil load.
func (in *interp) execute(startNode, startIter int) error {
	bc := in.bc
	code := bc.Code
	pc := int32(0)
	resumeLoopPC := int32(-1)
	pendingFirst := 0
	if startNode != 0 || startIter != 0 {
		if startNode < 0 || startNode >= len(bc.NodePC) {
			return fmt.Errorf("exec: checkpoint cursor node %d outside the program", startNode)
		}
		pc = bc.NodePC[startNode]
		if startIter > 0 {
			// The iteration cursor applies to the loop instruction right
			// after the resumed node's NODE_ENTER (and only a LOOP_CKPT
			// may carry one — only SumStore loops record iteration
			// cursors). A cursor pointing into any other shape is foreign.
			resumeLoopPC = pc + 1
			pendingFirst = startIter
		}
	}
	var nodeStart float64
	for int(pc) < len(code) {
		if err := in.ctx.Err(); err != nil {
			return fmt.Errorf("cancelled at op boundary: %w", err)
		}
		ins := &code[pc]
		switch ins.Op {
		case bytecode.OpCkptInit:
			if in.ckptSpec != nil && !in.statsRestored {
				if err := in.doCheckpoint(0, 0); err != nil {
					return err
				}
			}
			pc++

		case bytecode.OpNodeEnter:
			nodeStart = in.proc.Clock().Seconds()
			pc++

		case bytecode.OpNodeExit:
			if tr := in.proc.Tracer(); tr != nil {
				if end := in.proc.Clock().Seconds(); end > nodeStart {
					tr.Emit(trace.Span{Kind: trace.KindNode, Label: bc.Labels[ins.B],
						Start: nodeStart, Dur: end - nodeStart, N: int64(ins.A)})
				}
			}
			pc++

		case bytecode.OpCkpt:
			if in.ckptSpec != nil {
				if err := in.doCheckpoint(int(ins.A), 0); err != nil {
					return err
				}
			}
			pc++

		case bytecode.OpLoop, bytecode.OpLoopCkpt:
			first := 0
			if pc == resumeLoopPC {
				if ins.Op == bytecode.OpLoop {
					return fmt.Errorf("exec: checkpoint cursor (%d,%d) points into a non-resumable loop", startNode, startIter)
				}
				first = pendingFirst
				resumeLoopPC, pendingFirst = -1, 0
			}
			count, err := in.tripCount(ins)
			if err != nil {
				return err
			}
			if first >= count {
				pc = ins.D
				continue
			}
			in.vars[ins.A] = first
			ckptNode := int32(-1)
			if ins.Op == bytecode.OpLoopCkpt {
				ckptNode = ins.E
			}
			in.frames = append(in.frames, bcFrame{varSlot: ins.A, loopPC: pc, ckptNode: ckptNode, count: count, v: first})
			pc++

		case bytecode.OpEndLoop:
			f := &in.frames[len(in.frames)-1]
			f.v++
			if f.v < f.count {
				if f.ckptNode >= 0 && in.ckptSpec != nil && f.v%in.ckptSpec.every() == 0 {
					if err := in.doCheckpoint(int(f.ckptNode), f.v); err != nil {
						return err
					}
				}
				in.vars[f.varSlot] = f.v
				pc = f.loopPC + 1
			} else {
				in.frames = in.frames[:len(in.frames)-1]
				pc++
			}

		default:
			if err := in.exec(ins); err != nil {
				return err
			}
			pc++
		}
	}
	return nil
}

func (in *interp) tripCount(ins *bytecode.Instr) (int, error) {
	switch ins.B {
	case bytecode.CountSlabs:
		return in.tab[ins.C].slab.Count, nil
	case bytecode.CountCols:
		buf := in.bufs[ins.C]
		if buf == nil {
			return 0, fmt.Errorf("exec: cols of unread buffer %q", in.bc.BufNames[ins.C])
		}
		return buf.Cols, nil
	default:
		return int(ins.C), nil
	}
}

// exec handles the plan opcodes (everything but control flow).
func (in *interp) exec(ins *bytecode.Instr) error {
	switch ins.Op {
	case bytecode.OpLoadSlab:
		return in.loadSlab(ins)
	case bytecode.OpNewStaging:
		return in.newStaging(ins)
	case bytecode.OpAutoStage:
		in.tab[ins.A].autoOn = true
		in.tab[ins.A].autoIdx = -1
		return nil
	case bytecode.OpFlushStage:
		return in.flushStage(ins.A)
	case bytecode.OpStoreSlab:
		return in.storeSlab(ins)
	case bytecode.OpZeroVec:
		return in.zeroVec(ins)
	case bytecode.OpAxpyCols:
		return in.axpyCols(ins)
	case bytecode.OpSumStore:
		return in.sumStore(ins)
	case bytecode.OpResetCounter:
		in.counter = 0
		return nil
	case bytecode.OpNewSlab:
		return in.newSlab(ins)
	case bytecode.OpEwise:
		return in.ewise(ins)
	case bytecode.OpShiftEwise:
		return in.runShiftCore(ins)
	case bytecode.OpAllToAll:
		return in.allToAll(ins)
	default:
		return fmt.Errorf("exec: unexpected opcode %s", ins.Op)
	}
}

func (in *interp) loadSlab(ins *bytecode.Instr) error {
	arr := in.tab[ins.A].arr
	idx := in.vars[ins.B]
	var icla *oocarray.ICLA
	var err error
	if ins.D == 0 {
		icla, err = arr.ReadSlab(in.tab[ins.A].slab, idx)
	} else {
		icla, err = in.streamRead(ins, arr, idx)
	}
	if err != nil {
		return err
	}
	old := in.bufs[ins.C]
	in.bufs[ins.C] = icla
	in.recycle(arr, old)
	return nil
}

// streamRead serves a stream-marked load through its prefetch reader,
// falling back to a direct read when the sequential-scan hypothesis does
// not hold at runtime.
func (in *interp) streamRead(ins *bytecode.Instr, arr *oocarray.Array, idx int) (*oocarray.ICLA, error) {
	ri := ins.E
	r := in.readers[ri]
	if idx == 0 {
		if r == nil {
			r = arr.NewSlabReader(in.tab[ins.A].slab)
			in.readers[ri] = r
		} else {
			r.Reset()
		}
		in.readerNext[ri] = 0
	}
	if r == nil || in.readerNext[ri] != idx {
		return arr.ReadSlab(in.tab[ins.A].slab, idx)
	}
	icla, ok, err := r.Next()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("exec: stream reader for %q exhausted at slab %d", in.bc.Arrays[ins.A].Name, idx)
	}
	in.readerNext[ri] = idx + 1
	return icla, nil
}

func (in *interp) newStaging(ins *bytecode.Instr) error {
	arr := in.tab[ins.A].arr
	like := in.bufs[ins.B]
	if like == nil {
		return fmt.Errorf("exec: NewStaging rows-like buffer %q not read yet", in.bc.BufNames[ins.B])
	}
	s := &oocarray.ICLA{
		RowOff: like.RowOff, ColOff: 0,
		Rows: like.Rows, Cols: arr.LocalCols(),
		Data: bufpool.GetF64(like.Rows * arr.LocalCols()),
	}
	clear(s.Data)
	oldStage := in.tab[ins.A].staging
	oldBuf := in.bufs[ins.C]
	in.tab[ins.A].staging = s
	in.bufs[ins.C] = s
	in.recycle(arr, oldStage)
	in.recycle(arr, oldBuf)
	return nil
}

func (in *interp) flushStage(arrIdx int32) error {
	s := in.tab[arrIdx].staging
	if s == nil {
		return nil
	}
	arr := in.tab[arrIdx].arr
	if w := in.tab[arrIdx].writer; w != nil {
		if err := w.Write(s); err != nil {
			return err
		}
	} else if err := arr.WriteSection(s); err != nil {
		return err
	}
	in.tab[arrIdx].staging = nil
	in.recycle(arr, s)
	return nil
}

func (in *interp) storeSlab(ins *bytecode.Instr) error {
	buf := in.bufs[ins.B]
	if buf == nil {
		return fmt.Errorf("exec: WriteBuf of unknown buffer %q", in.bc.BufNames[ins.B])
	}
	if w := in.tab[ins.A].writer; w != nil {
		return w.Write(buf)
	}
	return in.tab[ins.A].arr.WriteSection(buf)
}

func (in *interp) zeroVec(ins *bytecode.Instr) error {
	var rows int
	if ins.B >= 0 {
		buf := in.bufs[ins.B]
		if buf == nil {
			return fmt.Errorf("exec: ZeroVec rows-like buffer %q not read yet", in.bc.BufNames[ins.B])
		}
		rows = buf.Rows
	} else {
		rows = in.tab[ins.C].arr.LocalRows()
	}
	v := in.vecs[ins.A]
	if len(v) != rows {
		in.vecs[ins.A] = make([]float64, rows)
	} else if !in.phantom {
		for i := range v {
			v[i] = 0
		}
	}
	return nil
}

// axpyCols runs one AXPY_COLS: every column of the in-core slab in one
// op boundary, with the operands and shapes checked once. The simulated
// clock is still charged once per column, in column order, because the
// golden fixtures pin that Compute span sequence.
func (in *interp) axpyCols(ins *bytecode.Instr) error {
	vec := in.vecs[ins.A]
	if vec == nil {
		return fmt.Errorf("exec: Axpy into unallocated vector %q", in.bc.VecNames[ins.A])
	}
	a := in.bufs[ins.B]
	if a == nil {
		return fmt.Errorf("exec: Axpy reads unread buffer %q", in.bc.BufNames[ins.B])
	}
	bb := in.bufs[ins.D]
	if bb == nil {
		return fmt.Errorf("exec: Axpy reads unread buffer %q", in.bc.BufNames[ins.D])
	}
	if a.Rows != len(vec) {
		return fmt.Errorf("exec: Axpy shape mismatch: vector %d vs slab rows %d", len(vec), a.Rows)
	}
	row0 := 0
	if ins.E >= 0 {
		scale := 1
		if ins.F >= 0 {
			scale = in.tab[ins.F].slab.Width
		}
		row0 = in.vars[ins.E] * scale
	}
	cols, m := a.Cols, in.vars[ins.H]
	if row0 < 0 || row0+cols > bb.Rows || m < 0 || m >= bb.Cols {
		return fmt.Errorf("exec: Axpy multipliers rows [%d,+%d) of column %d outside buffer %q (%dx%d)",
			row0, cols, m, in.bc.BufNames[ins.D], bb.Rows, bb.Cols)
	}
	if !in.phantom {
		axpyCols(vec, a.Data[:cols*a.Rows], bb.Col(m)[row0:row0+cols])
	}
	flops := 2 * int64(a.Rows)
	for range cols {
		in.proc.Compute(flops)
	}
	return nil
}

// axpyCols adds x[:, c]*coef[c] to y for every column c of the
// column-major x (len(y) rows, len(coef) columns). It blocks four
// columns per pass: each element takes its four adds in column order in
// a register, one multiply and one add each, so y is bitwise what
// axpyCol column by column leaves, while y is loaded and stored once per
// four columns instead of once per column. Leftover columns go through
// axpyCol. Kept out of line for the same placement reason as axpyCol.
//
//go:noinline
func axpyCols(y, x, coef []float64) {
	rows := len(y)
	for ; len(coef) >= 4; coef = coef[4:] {
		// Each column resliced to exactly rows proves its index in the
		// row loop below.
		x0 := x[:rows]
		x1 := x[rows:][:rows]
		x2 := x[2*rows:][:rows]
		x3 := x[3*rows:][:rows]
		x = x[4*rows:]
		c0, c1, c2, c3 := coef[0], coef[1], coef[2], coef[3]
		for r := range y {
			t := y[r]
			t += c0 * x0[r]
			t += c1 * x1[r]
			t += c2 * x2[r]
			t += c3 * x3[r]
			y[r] = t
		}
	}
	for c, a := range coef {
		axpyCol(y, x[c*rows:(c+1)*rows], a)
	}
}

// axpyCol adds a*x to y: y[i] += a*x[i], one multiply and one add per
// element in index order, so results are bitwise those of the plain
// loop. It is a leaf of its own, unrolled 4 ways with its bounds checks
// proved away, because the plain loop's speed depended on where the
// linker happened to place it (DESIGN §11). Kept out of line so that
// placement is its own symbol, visible to go tool nm.
//
//go:noinline
func axpyCol(y, x []float64, a float64) {
	y = y[:len(x)]
	// len(y) == len(x) throughout; testing both proves the indices.
	for len(x) >= 4 && len(y) >= 4 {
		y[0] += a * x[0]
		y[1] += a * x[1]
		y[2] += a * x[2]
		y[3] += a * x[3]
		x, y = x[4:], y[4:]
	}
	for i, v := range x {
		y[i] += a * v
	}
}

func (in *interp) sumStore(ins *bytecode.Instr) error {
	vec := in.vecs[ins.A]
	if vec == nil {
		return fmt.Errorf("exec: SumStore of unallocated vector %q", in.bc.VecNames[ins.A])
	}
	arr := in.tab[ins.B].arr
	gj := in.counter
	in.counter++
	owner := arr.Dist().Dims[1].Owner(gj)
	mine := owner == in.proc.Rank()

	// The owner positions its (auto) staging slab before the reduction.
	if mine && in.tab[ins.B].autoOn {
		_, local := arr.Dist().Dims[1].ToLocal(gj)
		slb := in.tab[ins.B].slab
		idx := local / slb.Width
		if idx != in.tab[ins.B].autoIdx {
			if err := in.flushStage(ins.B); err != nil {
				return err
			}
			s, err := arr.NewSlab(slb, idx)
			if err != nil {
				return err
			}
			in.tab[ins.B].staging = s
			in.tab[ins.B].autoIdx = idx
		}
	}

	sum := in.proc.Reduce(owner, reduceTag, vec)
	if !mine {
		return nil
	}
	name := in.bc.Arrays[ins.B].Name
	s := in.tab[ins.B].staging
	if s == nil {
		return fmt.Errorf("exec: SumStore into %q with no staging buffer", name)
	}
	_, local := arr.Dist().Dims[1].ToLocal(gj)
	lj := local - s.ColOff
	if lj < 0 || lj >= s.Cols {
		return fmt.Errorf("exec: SumStore column %d outside staging [%d,+%d)", gj, s.ColOff, s.Cols)
	}
	if len(sum) != s.Rows {
		return fmt.Errorf("exec: SumStore length %d vs staging rows %d", len(sum), s.Rows)
	}
	copy(s.Col(lj), sum)
	mp.ReleaseBuf(sum)
	return nil
}

func (in *interp) newSlab(ins *bytecode.Instr) error {
	arr := in.tab[ins.A].arr
	icla, err := arr.NewSlab(in.tab[ins.A].slab, in.vars[ins.B])
	if err != nil {
		return err
	}
	old := in.bufs[ins.C]
	in.bufs[ins.C] = icla
	in.recycle(arr, old)
	return nil
}

func (in *interp) ewise(ins *bytecode.Instr) error {
	out := in.bufs[ins.A]
	if out == nil {
		return fmt.Errorf("exec: Ewise into unknown buffer %q", in.bc.BufNames[ins.A])
	}
	if !in.phantom {
		if err := in.evalEwiseCode(in.bc.Exprs[ins.B], out.Data); err != nil {
			return err
		}
	}
	in.proc.Compute(int64(ins.C) * int64(len(out.Data)))
	return nil
}

// evalEwiseCode evaluates a postfix program elementwise into dst. The
// first value pushed lands in dst itself (the expression's left spine
// works into dst); every later push uses a pooled buffer, and operators
// fold the right operand into the left in place. The float operations
// run in the expression's left-to-right evaluation order, which the
// golden fixtures pin, and the result is dst with no final copy.
func (in *interp) evalEwiseCode(code []bytecode.ExprInstr, dst []float64) error {
	stack := in.estack[:0]
	fail := func(err error) error {
		// dst sits at the bottom of the stack; only pooled buffers above
		// it go back.
		for i := 1; i < len(stack); i++ {
			bufpool.PutF64(stack[i])
		}
		return err
	}
	push := func() []float64 {
		t := dst
		if len(stack) > 0 {
			t = bufpool.GetF64(len(dst))
		}
		stack = append(stack, t)
		return t
	}
	for i := range code {
		ins := &code[i]
		switch ins.Op {
		case bytecode.EPushConst:
			t := push()
			for j := range t {
				t[j] = ins.Val
			}
		case bytecode.EPushBuf:
			src := in.bufs[ins.A]
			if src == nil {
				return fail(fmt.Errorf("exec: Ewise reads unread buffer %q", in.bc.BufNames[ins.A]))
			}
			if len(src.Data) != len(dst) {
				return fail(fmt.Errorf("exec: Ewise buffer %q has %d elements, output has %d",
					in.bc.BufNames[ins.A], len(src.Data), len(dst)))
			}
			copy(push(), src.Data)
		default: // EAdd..EDiv; Validate pinned the opcode set and stack depth
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			l := stack[len(stack)-1]
			switch ins.Op {
			case bytecode.EAdd:
				for j := range l {
					l[j] += r[j]
				}
			case bytecode.ESub:
				for j := range l {
					l[j] -= r[j]
				}
			case bytecode.EMul:
				for j := range l {
					l[j] *= r[j]
				}
			case bytecode.EDiv:
				for j := range l {
					l[j] /= r[j]
				}
			}
			bufpool.PutF64(r)
		}
	}
	in.estack = stack[:0]
	return nil
}

// evalShiftCode evaluates a postfix program for one output column of a
// shifted FORALL. Every leaf pushes a pooled column (resolved through the
// halo section or the exchanged ghosts), operators fold right into left
// in place; in phantom mode columns are allocated but never filled.
func (in *interp) evalShiftCode(code []bytecode.ExprInstr, c, rows, localCols, h0 int,
	halos []*oocarray.ICLA, ghosts [][2][]float64) ([]float64, error) {
	stack := in.estack[:0]
	phantom := in.phantom
	fail := func(err error) ([]float64, error) {
		for _, t := range stack {
			bufpool.PutF64(t)
		}
		return nil, err
	}
	for i := range code {
		ins := &code[i]
		switch ins.Op {
		case bytecode.EPushConst:
			col := bufpool.GetF64(rows)
			if !phantom {
				for j := range col {
					col[j] = ins.Val
				}
			}
			stack = append(stack, col)
		case bytecode.EPushShift:
			col := bufpool.GetF64(rows)
			stack = append(stack, col)
			if phantom {
				continue
			}
			name := in.bc.Arrays[ins.A].Name
			src := c + int(ins.B)
			switch {
			case src < 0: // left ghost
				g := ghosts[ins.A][0]
				off := (len(g)/rows + src) * rows
				if off < 0 || off+rows > len(g) {
					return fail(fmt.Errorf("exec: shift column %d of %q outside the left ghost", src, name))
				}
				copy(col, g[off:off+rows])
			case src >= localCols: // right ghost
				g := ghosts[ins.A][1]
				off := (src - localCols) * rows
				if off < 0 || off+rows > len(g) {
					return fail(fmt.Errorf("exec: shift column %d of %q outside the right ghost", src, name))
				}
				copy(col, g[off:off+rows])
			default: // local, through the halo section
				copy(col, halos[ins.A].Col(src-h0))
			}
		default: // EAdd..EDiv
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			l := stack[len(stack)-1]
			if !phantom {
				switch ins.Op {
				case bytecode.EAdd:
					for j := range l {
						l[j] += r[j]
					}
				case bytecode.ESub:
					for j := range l {
						l[j] -= r[j]
					}
				case bytecode.EMul:
					for j := range l {
						l[j] *= r[j]
					}
				case bytecode.EDiv:
					for j := range l {
						l[j] /= r[j]
					}
				}
			}
			bufpool.PutF64(r)
		}
	}
	col := stack[0]
	in.estack = stack[:0]
	return col, nil
}

func (in *interp) allToAll(ins *bytecode.Instr) error {
	src := in.tab[ins.A].arr
	dst := in.tab[ins.B].arr
	return oocarray.RedistributeVia(in.proc, src, dst, int(ins.E), redistTag, ins.C == 1, collio.Method(ins.D))
}
