package exec

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
)

// shiftTagBase tags the boundary-column exchange messages.
const shiftTagBase = 101

// runShiftCore executes a FORALL with shifted column references
// (OpShiftEwise): first the boundary-column exchange with the
// neighboring processors over the expression's inputs, in first-use
// order (the order fixes the message tags), then a slab sweep with
// column halos, evaluating the expression per in-bounds column. The
// per-element operation count is charged to the compute clock for every
// evaluated column, phantom or not.
func (in *interp) runShiftCore(ins *bytecode.Instr) error {
	code := in.bc.Exprs[ins.B]
	inputs := in.shiftInputs[ins.B]
	lo, hi, ghostLeft, ghostRight, opsPerElem := int(ins.C), int(ins.D), int(ins.E), int(ins.F), int(ins.G)
	out := in.tab[ins.A].arr
	rows := out.LocalRows()
	localCols := out.LocalCols()

	// Phase 1: ghost exchange. Per input array-table index, ghosts[a][0]
	// holds the GhostLeft columns just below this block, ghosts[a][1] the
	// GhostRight columns just above it (column-major, rows x width).
	ghosts := make([][2][]float64, len(in.tab))
	rank, size := in.proc.Rank(), in.proc.Size()
	for gi, ai := range inputs {
		arr := in.tab[ai].arr
		if arr.LocalCols() != localCols || arr.LocalRows() != rows {
			return fmt.Errorf("exec: shift input %q shape differs from output", in.bc.Arrays[ai].Name)
		}
		tag := shiftTagBase + 2*gi
		// Send my last ghostLeft columns rightward (they are the right
		// neighbor's left ghost) and my first ghostRight columns
		// leftward.
		if ghostLeft > 0 && rank < size-1 {
			sec, err := arr.ReadSection(0, localCols-ghostLeft, rows, ghostLeft)
			if err != nil {
				return err
			}
			in.proc.Send(rank+1, tag, sec.Data)
			arr.Recycle(sec)
		}
		if ghostRight > 0 && rank > 0 {
			sec, err := arr.ReadSection(0, 0, rows, ghostRight)
			if err != nil {
				return err
			}
			in.proc.Send(rank-1, tag+1, sec.Data)
			arr.Recycle(sec)
		}
		var g [2][]float64
		if ghostLeft > 0 && rank > 0 {
			g[0] = in.proc.Recv(rank-1, tag)
		}
		if ghostRight > 0 && rank < size-1 {
			g[1] = in.proc.Recv(rank+1, tag+1)
		}
		ghosts[ai] = g
	}
	defer func() {
		for _, g := range ghosts {
			mp.ReleaseBuf(g[0])
			mp.ReleaseBuf(g[1])
		}
	}()

	// Phase 2: slab sweep with column halos.
	slb := in.tab[ins.A].slab
	colMap := out.Dist().Dims[1]
	for idx := 0; idx < slb.Count; idx++ {
		// The output slab's previous contents are the base: columns
		// outside [lo, hi] keep them.
		staging, err := out.ReadSlab(slb, idx)
		if err != nil {
			return err
		}
		c0, width := staging.ColOff, staging.Cols
		// Halo sections of every input, clipped to the local block.
		h0 := c0 - ghostLeft
		if h0 < 0 {
			h0 = 0
		}
		hEnd := c0 + width + ghostRight
		if hEnd > localCols {
			hEnd = localCols
		}
		halos := make([]*oocarray.ICLA, len(in.tab))
		for _, ai := range inputs {
			sec, err := in.tab[ai].arr.ReadSection(0, h0, rows, hEnd-h0)
			if err != nil {
				return err
			}
			halos[ai] = sec
		}
		for c := c0; c < c0+width; c++ {
			k := colMap.ToGlobal(rank, c)
			if k < lo || k > hi {
				continue
			}
			col, err := in.evalShiftCode(code, c, rows, localCols, h0, halos, ghosts)
			if err != nil {
				return err
			}
			if !in.phantom {
				copy(staging.Col(c-c0), col)
			}
			bufpool.PutF64(col)
			in.proc.Compute(int64(opsPerElem) * int64(rows))
		}
		if err := out.WriteSection(staging); err != nil {
			return err
		}
		out.Recycle(staging)
		for _, ai := range inputs {
			in.tab[ai].arr.Recycle(halos[ai])
		}
	}
	return nil
}
