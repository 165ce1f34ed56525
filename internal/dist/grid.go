package dist

import "fmt"

// Grid is a Cartesian processor arrangement (HPF "PROCESSORS P(r,c)").
// Ranks are linearized row-major: coordinate (c0, c1, ...) maps to
// ((c0*Shape[1])+c1)*Shape[2]+... .
type Grid struct {
	Shape []int
}

// NewGrid returns a grid with the given per-axis extents.
func NewGrid(shape ...int) Grid { return Grid{Shape: shape} }

// Validate reports whether every axis is positive.
func (g Grid) Validate() error {
	if len(g.Shape) == 0 {
		return fmt.Errorf("dist: empty processor grid")
	}
	for i, s := range g.Shape {
		if s <= 0 {
			return fmt.Errorf("dist: grid axis %d has nonpositive extent %d", i, s)
		}
	}
	return nil
}

// Size returns the total number of processors.
func (g Grid) Size() int {
	n := 1
	for _, s := range g.Shape {
		n *= s
	}
	return n
}

// Rank linearizes grid coordinates to a processor rank.
func (g Grid) Rank(coords ...int) int {
	if len(coords) != len(g.Shape) {
		panic(fmt.Sprintf("dist: Rank wants %d coordinates, got %d", len(g.Shape), len(coords)))
	}
	r := 0
	for i, c := range coords {
		if c < 0 || c >= g.Shape[i] {
			panic(fmt.Sprintf("dist: coordinate %d out of range on axis %d (extent %d)", c, i, g.Shape[i]))
		}
		r = r*g.Shape[i] + c
	}
	return r
}

// Coords inverts Rank.
func (g Grid) Coords(rank int) []int {
	if rank < 0 || rank >= g.Size() {
		panic(fmt.Sprintf("dist: rank %d outside grid of %d", rank, g.Size()))
	}
	out := make([]int, len(g.Shape))
	for i := len(g.Shape) - 1; i >= 0; i-- {
		out[i] = rank % g.Shape[i]
		rank /= g.Shape[i]
	}
	return out
}

// Coord returns one coordinate of Coords(rank) without materializing the
// vector — the index-translation hot paths call this per element.
func (g Grid) Coord(rank, axis int) int {
	if rank < 0 || rank >= g.Size() {
		panic(fmt.Sprintf("dist: rank %d outside grid of %d", rank, g.Size()))
	}
	for i := len(g.Shape) - 1; i > axis; i-- {
		rank /= g.Shape[i]
	}
	return rank % g.Shape[axis]
}

// NewGridArray builds an array mapping over a multi-dimensional processor
// grid: the distributed dimensions of dims, in order, take the grid's
// axes in order. Collapsed dimensions are unconstrained.
func NewGridArray(name string, grid Grid, dims ...Map) (*Array, error) {
	a := &Array{Name: name, Dims: dims, Grid: grid.Shape}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// axisOf returns, for each array dimension, the grid axis it is
// distributed over (-1 for collapsed dimensions).
func (a *Array) axisOf() []int {
	out := make([]int, len(a.Dims))
	axis := 0
	for i, d := range a.Dims {
		if d.Scheme == Collapsed {
			out[i] = -1
			continue
		}
		out[i] = axis
		axis++
	}
	return out
}

// grid returns the effective processor grid: the explicit one, or the
// implicit 1-D grid of a single distributed dimension.
func (a *Array) grid() Grid {
	if a.Grid != nil {
		return Grid{Shape: a.Grid}
	}
	return Grid{Shape: []int{a.Procs()}}
}

// ProcCoord returns processor rank's coordinate along array dimension
// dim: its grid coordinate for a distributed dimension, 0 for a collapsed
// one.
func (a *Array) ProcCoord(rank, dim int) int {
	axis := a.axisOfDim(dim)
	if axis < 0 {
		return 0
	}
	if a.Grid == nil {
		return rank
	}
	return Grid{Shape: a.Grid}.Coord(rank, axis)
}

// OwnerStride returns the weight of dimension dim's owner coordinate in
// the linearized owner rank, so that Owner(idx...) is the sum over the
// dimensions of Dims[d].Owner(idx[d]) * OwnerStride(d): the product of
// the later grid axes on an explicit grid (Grid.Rank is row-major), 1 for
// the distributed dimension of the 1-D arrangement, and 0 for a collapsed
// dimension.
func (a *Array) OwnerStride(dim int) int {
	axis := a.axisOfDim(dim)
	if axis < 0 {
		return 0
	}
	stride := 1
	if a.Grid != nil {
		for _, s := range a.Grid[axis+1:] {
			stride *= s
		}
	}
	return stride
}

// axisOfDim returns the grid axis of one array dimension, preferring the
// table Validate cached; arrays built as raw literals (tests) fall back
// to recomputing it.
func (a *Array) axisOfDim(dim int) int {
	if a.axes != nil {
		return a.axes[dim]
	}
	return a.axisOf()[dim]
}
