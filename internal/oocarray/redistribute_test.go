package oocarray

import (
	"fmt"
	"testing"

	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
)

// runRedistribute executes a column-block -> dstMap redistribution of an
// n x n array over p processors and verifies every element landed where
// dstMap says it should.
func runRedistribute(t *testing.T, n, p int, mkDst func(n, p int) *dist.Array, transpose bool, wantAt func(gi, gj int) float64) {
	t.Helper()
	fs := iosim.NewMemFS()
	_, err := mp.Run(sim.Delta(p), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), &proc.Stats().IO)
		srcMap, err := dist.NewArray("src", dist.NewCollapsed(n), dist.NewBlock(n, p))
		if err != nil {
			return err
		}
		src, err := New(disk, srcMap, proc.Rank(), proc.Clock(), Options{})
		if err != nil {
			return err
		}
		if err := src.FillGlobal(valueAt); err != nil {
			return err
		}
		dstMap := mkDst(n, p)
		dst, err := New(disk, dstMap, proc.Rank(), proc.Clock(), Options{})
		if err != nil {
			return err
		}
		if err := RedistributeMapped(proc, src, dst, n*2, 100, transpose); err != nil {
			return err
		}
		m, err := dst.ReadLocal()
		if err != nil {
			return err
		}
		for lj := 0; lj < dst.LocalCols(); lj++ {
			for li := 0; li < dst.LocalRows(); li++ {
				gi, gj := dst.GlobalIndex(li, lj)
				if got, want := m.At(li, lj), wantAt(gi, gj); got != want {
					return fmt.Errorf("proc %d dst(%d,%d)=g(%d,%d): got %g want %g",
						proc.Rank(), li, lj, gi, gj, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistributeColumnToRowBlock(t *testing.T) {
	mkRow := func(n, p int) *dist.Array {
		d, err := dist.NewArray("dst", dist.NewBlock(n, p), dist.NewCollapsed(n))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	runRedistribute(t, 12, 4, mkRow, false, valueAt)
}

func TestRedistributeToCyclic(t *testing.T) {
	mkCyc := func(n, p int) *dist.Array {
		d, err := dist.NewArray("dst", dist.NewCollapsed(n), dist.NewCyclic(n, p))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	runRedistribute(t, 10, 3, mkCyc, false, valueAt)
}

func TestRedistributeIdentity(t *testing.T) {
	mkSame := func(n, p int) *dist.Array {
		d, err := dist.NewArray("dst", dist.NewCollapsed(n), dist.NewBlock(n, p))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	runRedistribute(t, 8, 2, mkSame, false, valueAt)
}

func TestRedistributeTranspose(t *testing.T) {
	// dst(gj, gi) = src(gi, gj): an out-of-core transpose expressed as a
	// mapped redistribution.
	mkDst := func(n, p int) *dist.Array {
		d, err := dist.NewArray("dst", dist.NewCollapsed(n), dist.NewBlock(n, p))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// dst holds the transpose, so dst(gi,gj) == src(gj,gi).
	runRedistribute(t, 9, 3, mkDst, true, func(gi, gj int) float64 { return valueAt(gj, gi) })
}

func TestRedistributeRaggedCounts(t *testing.T) {
	// 10 columns over 4 procs gives slab counts 3,3,3,1 with a 1-column
	// budget; the collective max keeps the rounds aligned.
	mkRow := func(n, p int) *dist.Array {
		d, err := dist.NewArray("dst", dist.NewBlock(n, p), dist.NewCollapsed(n))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fs := iosim.NewMemFS()
	const n, p = 10, 4
	_, err := mp.Run(sim.Delta(p), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), nil)
		srcMap, err := dist.NewArray("src", dist.NewCollapsed(n), dist.NewBlock(n, p))
		if err != nil {
			return err
		}
		src, err := New(disk, srcMap, proc.Rank(), nil, Options{})
		if err != nil {
			return err
		}
		if err := src.FillGlobal(valueAt); err != nil {
			return err
		}
		dst, err := New(disk, mkRow(n, p), proc.Rank(), nil, Options{})
		if err != nil {
			return err
		}
		// Budget of n elements = 1 source column per slab.
		if err := Redistribute(proc, src, dst, n, 7); err != nil {
			return err
		}
		m, err := dst.ReadLocal()
		if err != nil {
			return err
		}
		for lj := 0; lj < dst.LocalCols(); lj++ {
			for li := 0; li < dst.LocalRows(); li++ {
				gi, gj := dst.GlobalIndex(li, lj)
				if m.At(li, lj) != valueAt(gi, gj) {
					return fmt.Errorf("proc %d wrong at g(%d,%d)", proc.Rank(), gi, gj)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistributeShapeMismatch(t *testing.T) {
	fs := iosim.NewMemFS()
	_, err := mp.Run(sim.Delta(2), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), nil)
		srcMap, _ := dist.NewArray("src", dist.NewCollapsed(8), dist.NewBlock(8, 2))
		dstMap, _ := dist.NewArray("dst", dist.NewCollapsed(6), dist.NewBlock(6, 2))
		src, err := New(disk, srcMap, proc.Rank(), nil, Options{})
		if err != nil {
			return err
		}
		dst, err := New(disk, dstMap, proc.Rank(), nil, Options{})
		if err != nil {
			return err
		}
		if err := Redistribute(proc, src, dst, 64, 1); err == nil {
			return fmt.Errorf("shape mismatch not detected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistributeToBlockBlockGrid(t *testing.T) {
	// Column-block over 4 procs -> block-block over a 2x2 grid: the
	// general two-dimensional redistribution of Section 2.3.
	fs := iosim.NewMemFS()
	const n, p = 12, 4
	_, err := mp.Run(sim.Delta(p), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), nil)
		srcMap, err := dist.NewArray("src", dist.NewCollapsed(n), dist.NewBlock(n, p))
		if err != nil {
			return err
		}
		src, err := New(disk, srcMap, proc.Rank(), nil, Options{})
		if err != nil {
			return err
		}
		if err := src.FillGlobal(valueAt); err != nil {
			return err
		}
		dstMap, err := dist.NewGridArray("dst", dist.NewGrid(2, 2),
			dist.NewBlock(n, 2), dist.NewBlock(n, 2))
		if err != nil {
			return err
		}
		dst, err := New(disk, dstMap, proc.Rank(), nil, Options{})
		if err != nil {
			return err
		}
		if dst.LocalRows() != n/2 || dst.LocalCols() != n/2 {
			return fmt.Errorf("grid local shape %dx%d", dst.LocalRows(), dst.LocalCols())
		}
		if err := Redistribute(proc, src, dst, n*2, 50); err != nil {
			return err
		}
		m, err := dst.ReadLocal()
		if err != nil {
			return err
		}
		for lj := 0; lj < dst.LocalCols(); lj++ {
			for li := 0; li < dst.LocalRows(); li++ {
				gi, gj := dst.GlobalIndex(li, lj)
				if m.At(li, lj) != valueAt(gi, gj) {
					return fmt.Errorf("proc %d grid dst wrong at g(%d,%d): %g", proc.Rank(), gi, gj, m.At(li, lj))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
