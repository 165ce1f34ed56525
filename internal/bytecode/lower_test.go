package bytecode_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/plan"
)

func lowerGaxpy(t *testing.T, opts compiler.Options) (*plan.Program, *bytecode.Program) {
	t.Helper()
	res, err := compiler.CompileSource(hpf.GaxpySource, opts)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Lower(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	return res.Program, bc
}

// findLoop returns the loop binding v anywhere in the node list.
func findLoop(nodes []plan.Node, v string) *plan.Loop {
	for _, n := range nodes {
		if l, ok := n.(*plan.Loop); ok {
			if l.Var == v {
				return l
			}
			if in := findLoop(l.Body, v); in != nil {
				return in
			}
		}
	}
	return nil
}

// TestGaxpyLowersToAxpyCols: both GAXPY strategies lower their column
// sweep to a single AXPY_COLS, with no loop of its own around it and no
// slot for the column variable. At n=512 over 8 processors the row-slab
// stream is 17 instructions.
func TestGaxpyLowersToAxpyCols(t *testing.T) {
	for _, tc := range []struct {
		force  string
		instrs int
	}{{"row-slab", 17}, {"column-slab", 26}} {
		t.Run(tc.force, func(t *testing.T) {
			p, bc := lowerGaxpy(t, compiler.Options{N: 512, Procs: 8, MemElems: 512 * 64, Force: tc.force})
			if p.Strategy != tc.force {
				t.Fatalf("compiled strategy %q", p.Strategy)
			}
			if findLoop(p.Body, "i") == nil {
				t.Fatal("the plan IR no longer carries the column loop")
			}
			if len(bc.Code) != tc.instrs {
				t.Errorf("%d instructions, want %d:\n%s", len(bc.Code), tc.instrs, bc.Disassemble())
			}
			fused := 0
			for pc, ins := range bc.Code {
				if ins.Op != bytecode.OpAxpyCols {
					continue
				}
				fused++
				if prev := bc.Code[pc-1].Op; prev == bytecode.OpLoop || prev == bytecode.OpLoopCkpt {
					t.Errorf("pc %d: AXPY_COLS sits in a loop of its own", pc)
				}
				for lpc, l := range bc.Code {
					if l.Op == bytecode.OpLoop && l.B == bytecode.CountCols && l.C == ins.B {
						t.Errorf("pc %d: a LOOP still walks the columns AXPY_COLS sweeps", lpc)
					}
				}
			}
			if fused != 1 {
				t.Errorf("%d AXPY_COLS instructions, want 1", fused)
			}
			if slices.Contains(bc.VarNames, "i") {
				t.Errorf("column variable still has a slot: %v", bc.VarNames)
			}
		})
	}
}

// TestAxpyOutsideColumnLoopFailsLowering: a plan.Axpy in any shape but
// the column sweep AXPY_COLS stands for is a lowering error.
func TestAxpyOutsideColumnLoopFailsLowering(t *testing.T) {
	for name, bend := range map[string]func(l *plan.Loop){
		"literal count":    func(l *plan.Loop) { l.Count = plan.CountExpr{Lit: 4} },
		"count of another": func(l *plan.Loop) { l.Count = plan.CountExpr{ColsOf: "icla_b"} },
		"second statement": func(l *plan.Loop) { l.Body = append(l.Body, l.Body[0]) },
		"fixed column":     func(l *plan.Loop) { l.Body[0].(*plan.Axpy).ACol = "m" },
		"fixed row":        func(l *plan.Loop) { l.Body[0].(*plan.Axpy).BRowPlus = "" },
		"row base is loop": func(l *plan.Loop) { l.Body[0].(*plan.Axpy).BRowBase = "i" },
		"column is loop":   func(l *plan.Loop) { l.Body[0].(*plan.Axpy).BCol = "i" },
	} {
		t.Run(name, func(t *testing.T) {
			res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{N: 32, Procs: 4, MemElems: 300, Force: "row-slab"})
			if err != nil {
				t.Fatal(err)
			}
			bend(findLoop(res.Program.Body, "i"))
			if _, err := bytecode.Lower(res.Program); err == nil || !strings.Contains(err.Error(), "AXPY_COLS") {
				t.Fatalf("want an AXPY_COLS shape error, got %v", err)
			}
		})
	}
}

// TestValidateRejectsMalformedAxpyCols: every AXPY_COLS operand is
// range-checked, and a row scale needs a row base to scale.
func TestValidateRejectsMalformedAxpyCols(t *testing.T) {
	_, bc := lowerGaxpy(t, compiler.Options{N: 32, Procs: 4, MemElems: 300, Force: "column-slab"})
	pc := slices.IndexFunc(bc.Code, func(ins bytecode.Instr) bool { return ins.Op == bytecode.OpAxpyCols })
	if pc < 0 || bc.Code[pc].E < 0 || bc.Code[pc].F < 0 {
		t.Fatalf("column-slab GAXPY should lower to a scaled AXPY_COLS:\n%s", bc.Disassemble())
	}
	for name, mut := range map[string]func(*bytecode.Instr){
		"row scale without a row base": func(i *bytecode.Instr) { i.E = -1 },
		"vector slot":                  func(i *bytecode.Instr) { i.A = int32(len(bc.VecNames)) },
		"slab buffer":                  func(i *bytecode.Instr) { i.B = -1 },
		"multiplier buffer":            func(i *bytecode.Instr) { i.D = int32(len(bc.BufNames)) },
		"row base":                     func(i *bytecode.Instr) { i.E = int32(len(bc.VarNames)) },
		"negative row base":            func(i *bytecode.Instr) { i.E = -2 },
		"row scale array":              func(i *bytecode.Instr) { i.F = int32(len(bc.Arrays)) },
		"multiplier column":            func(i *bytecode.Instr) { i.H = -1 },
	} {
		bad := *bc
		bad.Code = slices.Clone(bc.Code)
		mut(&bad.Code[pc])
		if err := bad.Validate(); !errors.Is(err, bytecode.ErrMalformed) {
			t.Errorf("%s: want ErrMalformed, got %v", name, err)
		}
	}
}
