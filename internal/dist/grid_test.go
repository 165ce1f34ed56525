package dist

import (
	"testing"
	"testing/quick"
)

func TestGridRankCoordsRoundTrip(t *testing.T) {
	g := NewGrid(2, 3)
	if g.Size() != 6 {
		t.Fatalf("Size = %d", g.Size())
	}
	want := map[[2]int]int{
		{0, 0}: 0, {0, 1}: 1, {0, 2}: 2,
		{1, 0}: 3, {1, 1}: 4, {1, 2}: 5,
	}
	for coords, rank := range want {
		if got := g.Rank(coords[0], coords[1]); got != rank {
			t.Errorf("Rank%v = %d, want %d", coords, got, rank)
		}
		back := g.Coords(rank)
		if back[0] != coords[0] || back[1] != coords[1] {
			t.Errorf("Coords(%d) = %v, want %v", rank, back, coords)
		}
	}
}

func TestGridRoundTripProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		g := NewGrid(int(a%4)+1, int(b%4)+1, int(c%4)+1)
		for r := 0; r < g.Size(); r++ {
			if g.Rank(g.Coords(r)...) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGridValidation(t *testing.T) {
	if err := NewGrid().Validate(); err == nil {
		t.Error("empty grid should fail")
	}
	if err := NewGrid(2, 0).Validate(); err == nil {
		t.Error("zero axis should fail")
	}
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	g := NewGrid(2, 2)
	expectPanic("wrong arity", func() { g.Rank(1) })
	expectPanic("coordinate out of range", func() { g.Rank(0, 5) })
	expectPanic("rank out of range", func() { g.Coords(4) })
}

func TestGridArrayBlockBlock(t *testing.T) {
	// 12x12 array block-block distributed over a 2x3 grid: local blocks
	// are 6x4.
	g := NewGrid(2, 3)
	a, err := NewGridArray("bb", g, NewBlock(12, 2), NewBlock(12, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Procs() != 6 {
		t.Fatalf("Procs = %d", a.Procs())
	}
	for rank := 0; rank < 6; rank++ {
		s := a.LocalShape(rank)
		if s[0] != 6 || s[1] != 4 {
			t.Fatalf("rank %d local shape %v", rank, s)
		}
	}
	// Element (7, 9): row block 1, col block 2 -> rank 1*3+2 = 5.
	if o := a.Owner(7, 9); o != 5 {
		t.Errorf("Owner(7,9) = %d, want 5", o)
	}
	proc, local := a.ToLocal(7, 9)
	if proc != 5 || local[0] != 1 || local[1] != 1 {
		t.Errorf("ToLocal(7,9) = %d %v, want 5 [1 1]", proc, local)
	}
	// ProcCoord decomposes a rank into per-dimension coordinates.
	if a.ProcCoord(5, 0) != 1 || a.ProcCoord(5, 1) != 2 {
		t.Errorf("ProcCoord(5) = (%d,%d)", a.ProcCoord(5, 0), a.ProcCoord(5, 1))
	}
}

func TestGridArrayPartitionExhaustive(t *testing.T) {
	// Every global element is owned by exactly one rank, and local
	// shapes account for all of them.
	g := NewGrid(2, 2)
	a, err := NewGridArray("x", g, NewBlock(10, 2), NewCyclic(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, a.Procs())
	for i := 0; i < 10; i++ {
		for j := 0; j < 7; j++ {
			o := a.Owner(i, j)
			counts[o]++
			proc, local := a.ToLocal(i, j)
			if proc != o {
				t.Fatalf("ToLocal owner mismatch at (%d,%d)", i, j)
			}
			// Round-trip through the per-dim maps.
			gi := a.Dims[0].ToGlobal(a.ProcCoord(o, 0), local[0])
			gj := a.Dims[1].ToGlobal(a.ProcCoord(o, 1), local[1])
			if gi != i || gj != j {
				t.Fatalf("grid round trip (%d,%d) -> (%d,%d)", i, j, gi, gj)
			}
		}
	}
	total := 0
	for rank, c := range counts {
		shape := a.LocalShape(rank)
		if c != shape[0]*shape[1] {
			t.Fatalf("rank %d owns %d elements, shape %v", rank, c, shape)
		}
		total += c
	}
	if total != 70 {
		t.Fatalf("partition covers %d of 70", total)
	}
}

func TestGridArrayValidation(t *testing.T) {
	g := NewGrid(2, 2)
	if _, err := NewGridArray("x", g, NewBlock(8, 2), NewCollapsed(8)); err == nil {
		t.Error("grid arity mismatch should fail")
	}
	if _, err := NewGridArray("x", g, NewBlock(8, 2), NewBlock(8, 3)); err == nil {
		t.Error("dim procs vs grid axis mismatch should fail")
	}
	if _, err := NewGridArray("x", NewGrid(0), NewBlock(8, 2)); err == nil {
		t.Error("bad grid should fail")
	}
	// Collapsed dims interleave freely.
	if _, err := NewGridArray("x", NewGrid(2), NewCollapsed(4), NewBlock(8, 2)); err != nil {
		t.Errorf("1-axis grid with collapsed dim should work: %v", err)
	}
}

func TestProcCoordOneDimensional(t *testing.T) {
	a, err := NewArray("a", NewCollapsed(8), NewBlock(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if a.ProcCoord(3, 1) != 3 {
		t.Errorf("1-D distributed coord = %d, want 3", a.ProcCoord(3, 1))
	}
	if a.ProcCoord(3, 0) != 0 {
		t.Errorf("collapsed coord = %d, want 0", a.ProcCoord(3, 0))
	}
}

// TestOwnerStrideSumsToOwner pins OwnerStride against Owner: the owner
// rank is the stride-weighted sum of the per-dimension owners, on 2-D
// and 1-D grids and the plain 1-D arrangement (collapsed dims weigh 0).
func TestOwnerStrideSumsToOwner(t *testing.T) {
	mk := func(a *Array, err error) *Array {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	arrays := []*Array{
		mk(NewGridArray("g23", NewGrid(2, 3), NewBlock(10, 2), NewCyclic(7, 3))),
		mk(NewGridArray("g1", NewGrid(3), NewCollapsed(5), NewBlockCyclic(9, 3, 2))),
		mk(NewArray("rows", NewBlock(9, 4), NewCollapsed(6))),
		mk(NewArray("cols", NewCollapsed(6), NewCyclic(9, 4))),
		mk(NewArray("none", NewCollapsed(3), NewCollapsed(4))),
	}
	for _, a := range arrays {
		shape := a.GlobalShape()
		for i := 0; i < shape[0]; i++ {
			for j := 0; j < shape[1]; j++ {
				got := a.Dims[0].Owner(i)*a.OwnerStride(0) + a.Dims[1].Owner(j)*a.OwnerStride(1)
				if want := a.Owner(i, j); got != want {
					t.Fatalf("%s (%d,%d): stride-weighted owner %d, Owner %d", a.Name, i, j, got, want)
				}
			}
		}
	}
}
