package bytecode

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/collio"
	"github.com/ooc-hpf/passion/internal/plan"
)

// Compile lowers a plan program to its flat opcode stream and records
// the plan's fingerprint, the form Encode persists. Every name the plan
// uses — loop variables, slab buffers, accumulation vectors, arrays — is
// resolved here, once, to a slot or table index, and every structural
// property of a node (checkpoint eligibility, redistribution method,
// per-element operation counts, span labels) is precomputed into
// instruction operands.
//
// Compile also performs the static checks a run would otherwise fail on
// at its first visit to the node: a reference to an undefined buffer, a
// dead loop variable or an unknown array is a compile error.
func Compile(p *plan.Program) (*Program, error) {
	bc, err := Lower(p)
	if err != nil {
		return nil, err
	}
	bc.Fingerprint = plan.Fingerprint(p, nil)
	return bc, nil
}

// Lower is Compile without the fingerprint, which costs more than the
// lowering itself: package exec lowers every plan it runs and never
// persists the stream.
func Lower(p *plan.Program) (*Program, error) {
	c := &compiler{
		bc: &Program{
			Name:     p.Name,
			N:        p.N,
			Procs:    p.Procs,
			Strategy: p.Strategy,
			Arrays:   append([]plan.ArraySpec(nil), p.Arrays...),
		},
		arrays: make(map[string]int32, len(p.Arrays)),
		vars:   make(map[string]int32),
		bufs:   make(map[string]int32),
		vecs:   make(map[string]int32),
		live:   make(map[string]bool),
	}
	for i, a := range p.Arrays {
		if _, dup := c.arrays[a.Name]; dup {
			return nil, fmt.Errorf("bytecode: duplicate array %q", a.Name)
		}
		c.arrays[a.Name] = int32(i)
	}
	c.emit(Instr{Op: OpCkptInit})
	for i, n := range p.Body {
		label := int32(len(c.bc.Labels))
		c.bc.Labels = append(c.bc.Labels, plan.NodeLabel(n))
		c.bc.NodePC = append(c.bc.NodePC, int32(len(c.bc.Code)))
		c.emit(Instr{Op: OpNodeEnter, A: int32(i), B: label})
		loop, isLoop := n.(*plan.Loop)
		var err error
		if isLoop && plan.HasSumStore(loop.Body) {
			// A top-level SumStore loop checkpoints between iterations
			// (the reductions force globally uniform trip counts, making
			// the boundary collective-safe); its OpLoopCkpt carries the
			// node index the checkpoint cursor needs. With checkpointing
			// off the executor runs it exactly like OpLoop.
			err = c.compileLoop(loop, int32(i))
		} else {
			err = c.compileNode(n)
		}
		if err != nil {
			return nil, err
		}
		c.emit(Instr{Op: OpNodeExit, A: int32(i), B: label})
		if i+1 < len(p.Body) {
			c.emit(Instr{Op: OpCkpt, A: int32(i + 1)})
		}
	}
	if err := c.bc.Validate(); err != nil {
		return nil, fmt.Errorf("bytecode: compiled stream fails validation: %w", err)
	}
	return c.bc, nil
}

type compiler struct {
	bc     *Program
	arrays map[string]int32
	vars   map[string]int32
	bufs   map[string]int32
	vecs   map[string]int32
	// live tracks which loop variables are in scope at the current
	// compile point: a loop variable lives from its loop's entry to its
	// exit.
	live map[string]bool
}

func (c *compiler) emit(ins Instr) int32 {
	c.bc.Code = append(c.bc.Code, ins)
	return int32(len(c.bc.Code) - 1)
}

func (c *compiler) arrayIdx(name, what string) (int32, error) {
	i, ok := c.arrays[name]
	if !ok {
		return 0, fmt.Errorf("bytecode: %s references unknown array %q", what, name)
	}
	return i, nil
}

// varDef brings a loop variable into scope, assigning its slot on first
// use. Shadowing is rejected: the plan's flat variable namespace would
// silently clobber and then kill the outer binding.
func (c *compiler) varDef(name string) (int32, error) {
	if c.live[name] {
		return 0, fmt.Errorf("bytecode: loop variable %q shadows a live loop variable", name)
	}
	s, ok := c.vars[name]
	if !ok {
		s = int32(len(c.bc.VarNames))
		c.bc.VarNames = append(c.bc.VarNames, name)
		c.vars[name] = s
	}
	c.live[name] = true
	return s, nil
}

func (c *compiler) varRef(name, what string) (int32, error) {
	if !c.live[name] {
		return 0, fmt.Errorf("bytecode: %s %q is not a live loop variable", what, name)
	}
	return c.vars[name], nil
}

// bufDef assigns (or reuses) the slot a node binds a buffer name to.
func (c *compiler) bufDef(name string) int32 {
	s, ok := c.bufs[name]
	if !ok {
		s = int32(len(c.bc.BufNames))
		c.bc.BufNames = append(c.bc.BufNames, name)
		c.bufs[name] = s
	}
	return s
}

func (c *compiler) bufRef(name, what string) (int32, error) {
	s, ok := c.bufs[name]
	if !ok {
		return 0, fmt.Errorf("bytecode: %s references buffer %q before any definition", what, name)
	}
	return s, nil
}

func (c *compiler) vecDef(name string) int32 {
	s, ok := c.vecs[name]
	if !ok {
		s = int32(len(c.bc.VecNames))
		c.bc.VecNames = append(c.bc.VecNames, name)
		c.vecs[name] = s
	}
	return s
}

func (c *compiler) vecRef(name, what string) (int32, error) {
	s, ok := c.vecs[name]
	if !ok {
		return 0, fmt.Errorf("bytecode: %s references vector %q before any ZeroVec", what, name)
	}
	return s, nil
}

// compileLoop lowers a loop; ckptNode >= 0 marks a checkpoint-eligible
// top-level SumStore loop and names its node index.
func (c *compiler) compileLoop(n *plan.Loop, ckptNode int32) error {
	kind, arg, err := c.count(n.Count)
	if err != nil {
		return err
	}
	slot, err := c.varDef(n.Var)
	if err != nil {
		return err
	}
	ins := Instr{Op: OpLoop, A: slot, B: kind, C: arg}
	if ckptNode >= 0 {
		ins.Op = OpLoopCkpt
		ins.E = ckptNode
	}
	loopPC := c.emit(ins)
	for _, b := range n.Body {
		if err := c.compileNode(b); err != nil {
			return err
		}
	}
	end := c.emit(Instr{Op: OpEndLoop, A: loopPC})
	c.bc.Code[loopPC].D = end + 1
	c.live[n.Var] = false
	return nil
}

func (c *compiler) count(e plan.CountExpr) (kind, arg int32, err error) {
	switch {
	case e.SlabsOf != "":
		arg, err = c.arrayIdx(e.SlabsOf, "loop count slabs()")
		return CountSlabs, arg, err
	case e.ColsOf != "":
		arg, err = c.bufRef(e.ColsOf, "loop count cols()")
		return CountCols, arg, err
	default:
		return CountLit, int32(e.Lit), nil
	}
}

func (c *compiler) compileNode(n plan.Node) error {
	switch n := n.(type) {
	case *plan.Loop:
		return c.compileLoop(n, -1)

	case *plan.ReadSlab:
		arr, err := c.arrayIdx(n.Array, "ReadSlab")
		if err != nil {
			return err
		}
		idx, err := c.varRef(n.Index, "ReadSlab index")
		if err != nil {
			return err
		}
		ins := Instr{Op: OpLoadSlab, A: arr, B: idx, C: c.bufDef(n.Buf), E: -1}
		if n.Stream {
			ins.D = 1
			ins.E = int32(c.bc.Readers)
			c.bc.Readers++
		}
		c.emit(ins)
		return nil

	case *plan.NewStaging:
		arr, err := c.arrayIdx(n.Array, "NewStaging")
		if err != nil {
			return err
		}
		like, err := c.bufRef(n.RowsLike, "NewStaging rows-like")
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpNewStaging, A: arr, B: like, C: c.bufDef(n.Buf)})
		return nil

	case *plan.AutoStage:
		arr, err := c.arrayIdx(n.Array, "AutoStage")
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpAutoStage, A: arr})
		return nil

	case *plan.FlushStage:
		arr, err := c.arrayIdx(n.Array, "FlushStage")
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpFlushStage, A: arr})
		return nil

	case *plan.WriteBuf:
		arr, err := c.arrayIdx(n.Array, "WriteBuf")
		if err != nil {
			return err
		}
		buf, err := c.bufRef(n.Buf, "WriteBuf")
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpStoreSlab, A: arr, B: buf})
		return nil

	case *plan.ZeroVec:
		ins := Instr{Op: OpZeroVec, A: c.vecDef(n.Vec), B: -1, C: -1}
		if n.RowsLike != "" {
			like, err := c.bufRef(n.RowsLike, "ZeroVec rows-like")
			if err != nil {
				return err
			}
			ins.B = like
		} else {
			arr, err := c.arrayIdx(n.RowsOfArray, "ZeroVec")
			if err != nil {
				return err
			}
			ins.C = arr
		}
		c.emit(ins)
		return nil

	case *plan.Axpy:
		vec, err := c.vecRef(n.Vec, "Axpy")
		if err != nil {
			return err
		}
		a, err := c.bufRef(n.A, "Axpy")
		if err != nil {
			return err
		}
		aCol, err := c.varRef(n.ACol, "Axpy column variable")
		if err != nil {
			return err
		}
		b, err := c.bufRef(n.B, "Axpy")
		if err != nil {
			return err
		}
		bCol, err := c.varRef(n.BCol, "Axpy column variable")
		if err != nil {
			return err
		}
		ins := Instr{Op: OpAxpy, A: vec, B: a, C: aCol, D: b, E: -1, F: -1, G: -1, H: bCol}
		if n.BRowBase != "" {
			if ins.E, err = c.varRef(n.BRowBase, "Axpy row variable"); err != nil {
				return err
			}
			if n.BRowScale != "" {
				if ins.F, err = c.arrayIdx(n.BRowScale, "Axpy slab width"); err != nil {
					return err
				}
			}
		}
		if n.BRowPlus != "" {
			if ins.G, err = c.varRef(n.BRowPlus, "Axpy row variable"); err != nil {
				return err
			}
		}
		c.emit(ins)
		return nil

	case *plan.SumStore:
		vec, err := c.vecRef(n.Vec, "SumStore")
		if err != nil {
			return err
		}
		arr, err := c.arrayIdx(n.Array, "SumStore")
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpSumStore, A: vec, B: arr})
		return nil

	case *plan.ResetCounter:
		c.emit(Instr{Op: OpResetCounter})
		return nil

	case *plan.NewSlab:
		arr, err := c.arrayIdx(n.Array, "NewSlab")
		if err != nil {
			return err
		}
		idx, err := c.varRef(n.Index, "NewSlab index")
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpNewSlab, A: arr, B: idx, C: c.bufDef(n.Buf)})
		return nil

	case *plan.Ewise:
		out, err := c.bufRef(n.Out, "Ewise output")
		if err != nil {
			return err
		}
		expr, err := c.compileExpr(n.Expr, false)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpEwise, A: out, B: expr, C: int32(n.Expr.Ops())})
		return nil

	case *plan.ShiftEwise:
		out, err := c.arrayIdx(n.Out, "ShiftEwise output")
		if err != nil {
			return err
		}
		expr, err := c.compileExpr(n.Expr, true)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpShiftEwise, A: out, B: expr,
			C: int32(n.Lo), D: int32(n.Hi),
			E: int32(n.GhostLeft), F: int32(n.GhostRight), G: int32(n.Expr.Ops())})
		return nil

	case *plan.Redistribute:
		src, err := c.arrayIdx(n.Src, "Redistribute source")
		if err != nil {
			return err
		}
		dst, err := c.arrayIdx(n.Dst, "Redistribute destination")
		if err != nil {
			return err
		}
		method, err := collio.ParseMethod(n.Method)
		if err != nil {
			return fmt.Errorf("bytecode: %w", err)
		}
		var tr int32
		if n.Transpose {
			tr = 1
		}
		c.emit(Instr{Op: OpAllToAll, A: src, B: dst, C: tr, D: int32(method), E: int32(n.MemElems)})
		return nil

	default:
		return fmt.Errorf("bytecode: unknown node %T", n)
	}
}

// compileExpr flattens an elementwise expression to postfix: left
// subtree, right subtree, operator. The executor's stack evaluation then
// performs the float operations in the expression's left-to-right
// evaluation order — the order package exec's golden fixtures pin. shift
// selects the ShiftEwise leaf set (shifted
// array reads) over the Ewise one (aligned buffer reads).
func (c *compiler) compileExpr(e plan.EExpr, shift bool) (int32, error) {
	var code []ExprInstr
	var walk func(e plan.EExpr) error
	walk = func(e plan.EExpr) error {
		switch e := e.(type) {
		case *plan.EConst:
			code = append(code, ExprInstr{Op: EPushConst, Val: e.V})
			return nil
		case *plan.EBuf:
			if shift {
				return fmt.Errorf("bytecode: aligned buffer reference %q inside a shifted FORALL", e.Buf)
			}
			s, err := c.bufRef(e.Buf, "elementwise expression")
			if err != nil {
				return err
			}
			code = append(code, ExprInstr{Op: EPushBuf, A: s})
			return nil
		case *plan.EBufShift:
			if !shift {
				return fmt.Errorf("bytecode: shifted reference to %q outside a shifted FORALL", e.Array)
			}
			arr, err := c.arrayIdx(e.Array, "shifted FORALL")
			if err != nil {
				return err
			}
			code = append(code, ExprInstr{Op: EPushShift, A: arr, B: int32(e.Shift)})
			return nil
		case *plan.EBin:
			if err := walk(e.L); err != nil {
				return err
			}
			if err := walk(e.R); err != nil {
				return err
			}
			var op ExprOp
			switch e.Op {
			case '+':
				op = EAdd
			case '-':
				op = ESub
			case '*':
				op = EMul
			case '/':
				op = EDiv
			default:
				return fmt.Errorf("bytecode: unknown elementwise operator %q", e.Op)
			}
			code = append(code, ExprInstr{Op: op})
			return nil
		default:
			return fmt.Errorf("bytecode: unknown elementwise expression %T", e)
		}
	}
	if err := walk(e); err != nil {
		return 0, err
	}
	c.bc.Exprs = append(c.bc.Exprs, code)
	return int32(len(c.bc.Exprs) - 1), nil
}
