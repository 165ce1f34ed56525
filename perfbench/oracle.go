package main

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/cliutil"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/sim"
)

// shiftSource is the column-stencil program: a FORALL whose right-hand
// side reads the neighbouring columns, so ranks exchange boundaries.
const shiftSource = `parameter (n=64, nprocs=4)
real x(n,n), z(n,n)
!hpf$ processors pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) on pr
!hpf$ align (*,:) with d :: x, z
FORALL (k=2:n-1)
  z(1:n,k) = (x(1:n,k-1) + 2*x(1:n,k) + x(1:n,k+1)) / 4
end FORALL
end
`

// source returns the program text a kernel compiles.
func source(k Kernel) string {
	switch k {
	case Transpose:
		return hpf.TransposeSource
	case Ewise:
		return hpf.EwiseSource
	case Shift:
		return shiftSource
	default:
		return hpf.GaxpySource
	}
}

// machine is the cost model every job targets: the paper's Delta, the
// default of ooc-run and ooc-serve alike.
func machine(procs int) sim.Config {
	mf, err := cliutil.MachineFor("")
	if err != nil {
		panic(err) // the empty name is the built-in default
	}
	return mf(procs)
}

// compileOptions are the options ooc-run and ooc-serve compile a spec
// with.
func compileOptions(s Spec) compiler.Options {
	return compiler.Options{
		N: s.N, Procs: s.Procs, MemElems: s.MemElems,
		Machine: machine(s.Procs), Force: s.Force, Policy: compiler.PolicyWeighted,
	}
}

// runFlags maps a spec onto the execution flags ooc-run and ooc-serve
// share, so a direct run uses exactly the served job's options.
func runFlags(s Spec) cliutil.RunFlags {
	return cliutil.RunFlags{
		Chaos: s.Chaos, ChaosSeed: s.ChaosSeed, Parity: s.Parity, Retries: -1,
	}
}

// Inputs are small integers, so every reference value below is exact in
// float64 whatever order the program sums in: outputs must match to the
// bit.

func transposeFill(n int) func(i, j int) float64 {
	return func(i, j int) float64 { return float64(i*n + j + 1) }
}

// fills returns a spec's input arrays by name: the values ooc-run and
// ooc-serve give them (cliutil.FillsFor). Those fill only GAXPY and
// transpose inputs; ewise and shift inputs start zeroed. A direct run
// must use the same fills as the served job, because a fill adds file
// operations and so moves where a seeded fault lands.
func fills(s Spec) map[string]func(i, j int) float64 {
	switch s.Kernel {
	case Gaxpy:
		return map[string]func(i, j int) float64{"a": gaxpy.FillA, "b": gaxpy.FillB}
	case Transpose:
		return map[string]func(i, j int) float64{"a": transposeFill(s.N)}
	}
	return nil
}

func constant(v float64) func(i, j int) float64 { return func(int, int) float64 { return v } }

// references returns each output array's expected contents, computed
// from the inputs by closed form and never by the code under test.
func references(s Spec) map[string]func(i, j int) float64 {
	switch s.Kernel {
	case Transpose:
		a := transposeFill(s.N)
		return map[string]func(i, j int) float64{"b": func(i, j int) float64 { return a(j, i) }}
	case Ewise:
		// z = alpha*x + y - 1 and w = z*x/2 on zero inputs.
		return map[string]func(i, j int) float64{"z": constant(-1), "w": constant(0)}
	case Shift:
		return map[string]func(i, j int) float64{"z": constant(0)}
	default:
		return map[string]func(i, j int) float64{"c": gaxpy.CExpected(s.N)}
	}
}

// verify checks every output array of a finished run against its
// reference.
func verify(s Spec, res *exec.Result) error {
	for name, want := range references(s) {
		got, err := res.ReadArray(name)
		if err != nil {
			return fmt.Errorf("%s: read %s: %w", s, name, err)
		}
		if err := compare(got, want); err != nil {
			return fmt.Errorf("%s: array %s: %w", s, name, err)
		}
	}
	return nil
}

func compare(got *matrix.Matrix, want func(i, j int) float64) error {
	if got.Rows == 0 || got.Cols == 0 {
		return fmt.Errorf("empty %dx%d array", got.Rows, got.Cols)
	}
	for j := 0; j < got.Cols; j++ {
		col := got.Col(j)
		for i, v := range col {
			if w := want(i, j); v != w {
				return fmt.Errorf("(%d,%d) = %v, want %v", i, j, v, w)
			}
		}
	}
	return nil
}
