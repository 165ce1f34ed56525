package collio

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
)

// oracleRoute is the per-element routing formula the router's tables
// replace: translate every source element to global indices, transpose
// them if asked, and translate them to the destination owner and local
// indices one element at a time.
func oracleRoute(parts [][]float64, src, dst Side, data []float64, c0, cw int, transpose bool) {
	for lj := 0; lj < cw; lj++ {
		for li := 0; li < src.Rows; li++ {
			di, dj := src.globalIndex(li, c0+lj)
			if transpose {
				di, dj = dj, di
			}
			owner, local := dst.Map.ToLocal(di, dj)
			lin := local[1]*dst.Map.LocalShape(owner)[0] + local[0]
			parts[owner] = append(parts[owner], float64(lin), data[lj*src.Rows+li])
		}
	}
}

// randomMap draws one 2-D mapping of an n x m global array over p
// processors: a 1-D arrangement distributing the rows or the columns as
// Block, Cyclic or CYCLIC(k) with the other dimension collapsed, a 2-D
// processor grid, or (on one processor) a fully collapsed array.
func randomMap(rng *rand.Rand, name string, n, m, p int) (*dist.Array, string) {
	scheme := func(extent, procs int) (dist.Map, string) {
		switch rng.Intn(3) {
		case 0:
			return dist.NewBlock(extent, procs), "block"
		case 1:
			return dist.NewCyclic(extent, procs), "cyclic"
		}
		k := 1 + rng.Intn(3)
		return dist.NewBlockCyclic(extent, procs, k), fmt.Sprintf("cyclic(%d)", k)
	}
	var a *dist.Array
	var desc string
	var err error
	switch kind := rng.Intn(4); {
	case p == 1 && kind == 3:
		a, err = dist.NewArray(name, dist.NewCollapsed(n), dist.NewCollapsed(m))
		desc = "(*,*)"
	case kind == 0:
		rows, s := scheme(n, p)
		a, err = dist.NewArray(name, rows, dist.NewCollapsed(m))
		desc = "(" + s + ",*)"
	case kind == 1:
		cols, s := scheme(m, p)
		a, err = dist.NewArray(name, dist.NewCollapsed(n), cols)
		desc = "(*," + s + ")"
	default:
		var divs []int
		for r := 1; r <= p; r++ {
			if p%r == 0 {
				divs = append(divs, r)
			}
		}
		r := divs[rng.Intn(len(divs))]
		rows, s0 := scheme(n, r)
		cols, s1 := scheme(m, p/r)
		a, err = dist.NewGridArray(name, dist.NewGrid(r, p/r), rows, cols)
		desc = fmt.Sprintf("grid%dx%d(%s,%s)", r, p/r, s0, s1)
	}
	if err != nil {
		panic(err)
	}
	return a, desc
}

// routeCase is one random source/destination pair of the differential
// routing property.
type routeCase struct {
	name      string
	n, m, p   int // source global shape n x m over p processors
	src, dst  *dist.Array
	transpose bool
}

func randomRouteCases(seed int64, perP int) []routeCase {
	rng := rand.New(rand.NewSource(seed))
	var out []routeCase
	for p := 1; p <= 8; p++ {
		for k := 0; k < perP; k++ {
			for _, transpose := range []bool{false, true} {
				n, m := 1+rng.Intn(13), 1+rng.Intn(13)
				dn, dm := n, m
				if transpose {
					dn, dm = m, n
				}
				src, sd := randomMap(rng, "src", n, m, p)
				dst, dd := randomMap(rng, "dst", dn, dm, p)
				out = append(out, routeCase{
					name: fmt.Sprintf("p%d/%dx%d/%s->%s/transpose=%v", p, n, m, sd, dd, transpose),
					n:    n, m: m, p: p, src: src, dst: dst, transpose: transpose,
				})
			}
		}
	}
	return out
}

// TestRouterMatchesPerElementOracle is the differential routing
// property: for random source/destination mappings, every rank's
// per-owner payloads built from the tables equal, pair for pair and in
// order, the ones the per-element formula builds — slab by slab, under
// both a one-column and a whole-array slab width.
func TestRouterMatchesPerElementOracle(t *testing.T) {
	for _, tc := range randomRouteCases(1, 12) {
		for rank := 0; rank < tc.p; rank++ {
			ss, ds := tc.src.LocalShape(rank), tc.dst.LocalShape(rank)
			src := Side{Map: tc.src, Rank: rank, Rows: ss[0], Cols: ss[1]}
			dst := Side{Map: tc.dst, Rank: rank, Rows: ds[0], Cols: ds[1]}
			data := make([]float64, src.Rows*src.Cols)
			for i := range data {
				data[i] = float64(i) + 0.5
			}
			rt := newRouter(src, dst, tc.p, tc.transpose)
			for _, w := range []int{1, max(src.Cols, 1)} {
				for c0 := 0; c0 < src.Cols; c0 += w {
					cw := min(w, src.Cols-c0)
					slab := data[c0*src.Rows : (c0+cw)*src.Rows]
					got, want := make([][]float64, tc.p), make([][]float64, tc.p)
					rt.route(got, slab, c0, cw)
					oracleRoute(want, src, dst, slab, c0, cw, tc.transpose)
					for q := range want {
						if !slices.Equal(got[q], want[q]) {
							rt.release()
							t.Fatalf("%s rank %d slab [%d,%d) to owner %d:\n got  %v\n want %v",
								tc.name, rank, c0, c0+cw, q, got[q], want[q])
						}
					}
				}
			}
			rt.release()
		}
	}
}

// TestRandomRedistributionsMatchInCore runs random redistributions end
// to end under every method, a tight and a roomy memory budget, and
// checks every destination element against the in-core reference.
func TestRandomRedistributionsMatchInCore(t *testing.T) {
	for _, tc := range randomRouteCases(2, 2) {
		roomy := 4 * tc.n * tc.m
		for _, memElems := range []int{1, roomy} {
			for _, method := range []Method{Direct, Sieved, TwoPhase} {
				name := fmt.Sprintf("%s/mem=%d/%v", tc.name, memElems, method)
				fs := iosim.NewMemFS()
				_, err := mp.Run(sim.Delta(tc.p), func(proc *mp.Proc) error {
					disk := iosim.NewDisk(fs, proc.Config(), &proc.Stats().IO)
					src := sideFor(t, disk, tc.src, proc.Rank(), valueAt)
					dst := sideFor(t, disk, tc.dst, proc.Rank(), nil)
					if err := Redistribute(proc, src, dst, memElems, 40, tc.transpose, method); err != nil {
						return err
					}
					want := valueAt
					if tc.transpose {
						want = func(gi, gj int) float64 { return valueAt(gj, gi) }
					}
					return checkSide(dst, want)
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestRedistributeRejectsIncompatibleShapes pins the shape check: plain
// redistribution needs equal global shapes, a transpose needs swapped
// ones.
func TestRedistributeRejectsIncompatibleShapes(t *testing.T) {
	mk := func(name string, n, m int) *dist.Array {
		a, err := dist.NewArray(name, dist.NewCollapsed(n), dist.NewBlock(m, 2))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, tc := range []struct {
		src, dst  *dist.Array
		transpose bool
		ok        bool
	}{
		{mk("a", 4, 6), mk("b", 4, 6), false, true},
		{mk("a", 4, 6), mk("b", 6, 4), false, false},
		{mk("a", 4, 6), mk("b", 6, 4), true, true},
		{mk("a", 4, 6), mk("b", 4, 6), true, false},
	} {
		fs := iosim.NewMemFS()
		_, err := mp.Run(sim.Delta(2), func(proc *mp.Proc) error {
			disk := iosim.NewDisk(fs, proc.Config(), nil)
			src := sideFor(t, disk, tc.src, proc.Rank(), valueAt)
			dst := sideFor(t, disk, tc.dst, proc.Rank(), nil)
			return Redistribute(proc, src, dst, 64, 41, tc.transpose, TwoPhase)
		})
		if (err == nil) != tc.ok {
			t.Fatalf("%v -> %v transpose=%v: err %v, want ok=%v",
				tc.src.GlobalShape(), tc.dst.GlobalShape(), tc.transpose, err, tc.ok)
		}
	}
}
