package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestAxpyColsMatchesPerColumn checks the blocked leaf bit for bit
// against axpyCol applied column by column: row counts 0..67 hit every
// tail of the row unroll, column counts 0..13 fall on and off the
// 4-column blocking, the multipliers start at a nonzero row of their
// column, and values of mixed sign and magnitude make any reordering of
// the adds show in the low bits.
func TestAxpyColsMatchesPerColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	val := func() float64 {
		return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(13)-6))
	}
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = val()
		}
		return s
	}
	for rows := 0; rows <= 67; rows++ {
		for cols := 0; cols <= 13; cols++ {
			x := fill(rows * cols)
			row0 := 1 + rng.Intn(5)
			coef := fill(row0 + cols + rng.Intn(3))[row0 : row0+cols]
			y := fill(rows)
			want := slices.Clone(y)
			for c := range cols {
				axpyCol(want, x[c*rows:(c+1)*rows], coef[c])
			}
			axpyCols(y, x, coef)
			for r := range want {
				if math.Float64bits(y[r]) != math.Float64bits(want[r]) {
					t.Fatalf("rows=%d cols=%d row0=%d: element %d is %v, per-column loop gives %v",
						rows, cols, row0, r, y[r], want[r])
				}
			}
		}
	}
}
