package oocarray

import (
	"testing"
	"testing/quick"

	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// valueAt is the global fill pattern used throughout the tests.
func valueAt(gi, gj int) float64 { return float64(gi*10000 + gj) }

// newTestArray creates the local array of processor proc for an n x n
// global array distributed column-block over p processors.
func newTestArray(t *testing.T, n, p, proc int, clock *sim.Clock, opts Options) (*Array, *trace.IOStats) {
	t.Helper()
	stats := &trace.IOStats{}
	disk := iosim.NewDisk(iosim.NewMemFS(), sim.Delta(p), stats)
	dm, err := dist.NewArray("a", dist.NewCollapsed(n), dist.NewBlock(n, p))
	if err != nil {
		t.Fatal(err)
	}
	arr, err := New(disk, dm, proc, clock, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.FillGlobal(valueAt); err != nil {
		t.Fatal(err)
	}
	return arr, stats
}

// TestFillGlobalNonBlockMappings checks FillGlobal's hoisted index
// tables against per-element GlobalIndex on every rank of cyclic,
// block-cyclic, row-distributed and 2-D grid mappings, including ragged
// and empty local sections.
func TestFillGlobalNonBlockMappings(t *testing.T) {
	mk := func(a *dist.Array, err error) *dist.Array {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	maps := []*dist.Array{
		mk(dist.NewArray("cyc", dist.NewCollapsed(7), dist.NewCyclic(10, 4))),
		mk(dist.NewArray("bc", dist.NewCollapsed(5), dist.NewBlockCyclic(11, 3, 2))),
		mk(dist.NewArray("rows", dist.NewBlockCyclic(9, 4, 2), dist.NewCollapsed(6))),
		mk(dist.NewArray("ragged", dist.NewBlock(5, 4), dist.NewCollapsed(3))),
		mk(dist.NewGridArray("grid", dist.NewGrid(2, 3), dist.NewCyclic(9, 2), dist.NewBlock(8, 3))),
		mk(dist.NewGridArray("gridbc", dist.NewGrid(3, 2), dist.NewBlock(7, 3), dist.NewBlockCyclic(10, 2, 3))),
	}
	for _, dm := range maps {
		for proc := 0; proc < dm.Procs(); proc++ {
			disk := iosim.NewDisk(iosim.NewMemFS(), sim.Delta(dm.Procs()), nil)
			arr, err := New(disk, dm, proc, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := arr.FillGlobal(valueAt); err != nil {
				t.Fatal(err)
			}
			m, err := arr.ReadLocal()
			if err != nil {
				t.Fatal(err)
			}
			for lj := 0; lj < arr.LocalCols(); lj++ {
				for li := 0; li < arr.LocalRows(); li++ {
					gi, gj := arr.GlobalIndex(li, lj)
					if got := m.At(li, lj); got != valueAt(gi, gj) {
						t.Fatalf("%s rank %d local (%d,%d) = g(%d,%d): got %g want %g",
							dm, proc, li, lj, gi, gj, got, valueAt(gi, gj))
					}
				}
			}
		}
	}
}

func TestFillGlobalAndReadLocal(t *testing.T) {
	const n, p, proc = 16, 4, 2
	arr, stats := newTestArray(t, n, p, proc, nil, Options{})
	if arr.LocalRows() != n || arr.LocalCols() != n/p {
		t.Fatalf("local shape %dx%d", arr.LocalRows(), arr.LocalCols())
	}
	m, err := arr.ReadLocal()
	if err != nil {
		t.Fatal(err)
	}
	for lj := 0; lj < arr.LocalCols(); lj++ {
		for li := 0; li < arr.LocalRows(); li++ {
			gi, gj := arr.GlobalIndex(li, lj)
			if gi != li || gj != proc*(n/p)+lj {
				t.Fatalf("GlobalIndex(%d,%d) = (%d,%d)", li, lj, gi, gj)
			}
			if m.At(li, lj) != valueAt(gi, gj) {
				t.Fatalf("element (%d,%d): got %g want %g", li, lj, m.At(li, lj), valueAt(gi, gj))
			}
		}
	}
	// Fill and verification are unaccounted.
	if stats.SlabReads != 0 || stats.SlabWrites != 0 {
		t.Errorf("initialization leaked into stats: %+v", stats)
	}
}

func TestColumnSlabGeometry(t *testing.T) {
	arr, _ := newTestArray(t, 16, 4, 0, nil, Options{}) // local 16x4
	s := arr.Slabbing(ByColumn, 32)                     // 32 elems / 16 rows = 2 cols
	if s.Width != 2 || s.Count != 2 {
		t.Fatalf("Slabbing = %+v", s)
	}
	// Budget below one column still yields width 1.
	s = arr.Slabbing(ByColumn, 3)
	if s.Width != 1 || s.Count != 4 {
		t.Fatalf("tiny budget Slabbing = %+v", s)
	}
	// Huge budget caps at the full extent.
	s = arr.Slabbing(ByColumn, 1<<20)
	if s.Width != 4 || s.Count != 1 {
		t.Fatalf("huge budget Slabbing = %+v", s)
	}
}

func TestRowSlabGeometry(t *testing.T) {
	arr, _ := newTestArray(t, 16, 4, 0, nil, Options{}) // local 16x4
	s := arr.Slabbing(ByRow, 16)                        // 16 elems / 4 cols = 4 rows
	if s.Width != 4 || s.Count != 4 {
		t.Fatalf("Slabbing = %+v", s)
	}
}

func TestSlabRatio(t *testing.T) {
	arr, _ := newTestArray(t, 16, 4, 0, nil, Options{}) // local 16x4 = 64 elems
	s := arr.SlabRatio(ByColumn, 0.5)
	if s.Width != 2 || s.Count != 2 {
		t.Fatalf("SlabRatio(1/2) = %+v", s)
	}
	s = arr.SlabRatio(ByRow, 0.25)
	if s.Width != 4 || s.Count != 4 {
		t.Fatalf("SlabRatio(1/4) by row = %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("SlabRatio(0) should panic")
		}
	}()
	arr.SlabRatio(ByColumn, 0)
}

func TestReadColumnSlabContents(t *testing.T) {
	const n, p, proc = 16, 4, 1
	arr, stats := newTestArray(t, n, p, proc, nil, Options{})
	s := arr.Slabbing(ByColumn, 2*n) // 2 columns per slab
	for idx := 0; idx < s.Count; idx++ {
		icla, err := arr.ReadSlab(s, idx)
		if err != nil {
			t.Fatal(err)
		}
		if icla.Rows != n || icla.ColOff != idx*2 {
			t.Fatalf("slab %d geometry %+v", idx, icla)
		}
		for j := 0; j < icla.Cols; j++ {
			for i := 0; i < icla.Rows; i++ {
				gi, gj := arr.GlobalIndex(icla.RowOff+i, icla.ColOff+j)
				if icla.At(i, j) != valueAt(gi, gj) {
					t.Fatalf("slab %d (%d,%d): got %g want %g", idx, i, j, icla.At(i, j), valueAt(gi, gj))
				}
			}
		}
	}
	// Column slabs of a column-major array are contiguous: one request
	// per slab fetch.
	if stats.SlabReads != int64(s.Count) || stats.ReadRequests != int64(s.Count) {
		t.Errorf("column slab accounting: %+v", stats)
	}
}

func TestReadRowSlabContents(t *testing.T) {
	const n, p, proc = 16, 4, 3
	arr, stats := newTestArray(t, n, p, proc, nil, Options{})
	cols := n / p
	s := arr.Slabbing(ByRow, 4*cols) // 4 rows per slab
	for idx := 0; idx < s.Count; idx++ {
		icla, err := arr.ReadSlab(s, idx)
		if err != nil {
			t.Fatal(err)
		}
		if icla.Cols != cols || icla.RowOff != idx*4 {
			t.Fatalf("slab %d geometry %+v", idx, icla)
		}
		for j := 0; j < icla.Cols; j++ {
			for i := 0; i < icla.Rows; i++ {
				gi, gj := arr.GlobalIndex(icla.RowOff+i, icla.ColOff+j)
				if icla.At(i, j) != valueAt(gi, gj) {
					t.Fatalf("slab %d (%d,%d): got %g want %g", idx, i, j, icla.At(i, j), valueAt(gi, gj))
				}
			}
		}
	}
	// A row slab is discontiguous: one request per local column.
	if stats.ReadRequests != int64(s.Count*cols) {
		t.Errorf("row slab accounting: got %d requests, want %d", stats.ReadRequests, s.Count*cols)
	}
}

func TestRowSlabSieving(t *testing.T) {
	const n, p = 16, 4
	plain, plainStats := newTestArray(t, n, p, 0, nil, Options{})
	sieved, sievedStats := newTestArray(t, n, p, 0, nil, Options{Sieve: true})
	s := plain.Slabbing(ByRow, 4*(n/p))
	a, err := plain.ReadSlab(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sieved.ReadSlab(sieved.Slabbing(ByRow, 4*(n/p)), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("sieving changed slab data at %d", i)
		}
	}
	if sievedStats.ReadRequests != 1 {
		t.Errorf("sieved read used %d requests", sievedStats.ReadRequests)
	}
	if plainStats.ReadRequests != int64(n/p) {
		t.Errorf("plain read used %d requests", plainStats.ReadRequests)
	}
	if sievedStats.BytesRead <= plainStats.BytesRead {
		t.Errorf("sieving should move more bytes: %d vs %d", sievedStats.BytesRead, plainStats.BytesRead)
	}
}

func TestWriteSlabRoundTrip(t *testing.T) {
	arr, _ := newTestArray(t, 16, 4, 0, nil, Options{})
	s := arr.Slabbing(ByRow, 4*arr.LocalCols())
	icla, err := arr.NewSlab(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < icla.Cols; j++ {
		for i := 0; i < icla.Rows; i++ {
			icla.Set(i, j, float64(1000+i*10+j))
		}
	}
	if err := arr.WriteSection(icla); err != nil {
		t.Fatal(err)
	}
	back, err := arr.ReadSlab(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range icla.Data {
		if back.Data[i] != icla.Data[i] {
			t.Fatalf("write/read mismatch at %d: %g vs %g", i, back.Data[i], icla.Data[i])
		}
	}
	// Other slabs untouched.
	other, err := arr.ReadSlab(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	gi, gj := arr.GlobalIndex(0, 0)
	if other.At(0, 0) != valueAt(gi, gj) {
		t.Error("writing slab 2 corrupted slab 0")
	}
}

func TestReadSectionBounds(t *testing.T) {
	arr, _ := newTestArray(t, 8, 2, 0, nil, Options{})
	if _, err := arr.ReadSection(0, 0, 9, 1); err == nil {
		t.Error("section taller than local rows should fail")
	}
	if _, err := arr.ReadSection(-1, 0, 1, 1); err == nil {
		t.Error("negative row offset should fail")
	}
	if _, err := arr.ReadSection(0, 3, 8, 2); err == nil {
		t.Error("section wider than local cols should fail")
	}
	empty, err := arr.ReadSection(0, 0, 0, 0)
	if err != nil || len(empty.Data) != 0 {
		t.Errorf("empty section: %v %v", empty, err)
	}
}

func TestClockCharging(t *testing.T) {
	var clock sim.Clock
	arr, _ := newTestArray(t, 16, 4, 0, &clock, Options{})
	s := arr.Slabbing(ByColumn, 16)
	if _, err := arr.ReadSlab(s, 0); err != nil {
		t.Fatal(err)
	}
	if clock.Seconds() <= 0 {
		t.Error("ReadSlab did not charge the clock")
	}
	before := clock.Seconds()
	icla, _ := arr.NewSlab(s, 1)
	if err := arr.WriteSection(icla); err != nil {
		t.Fatal(err)
	}
	if clock.Seconds() <= before {
		t.Error("WriteSection did not charge the clock")
	}
}

func TestSlabPartitionProperty(t *testing.T) {
	// Property: for any local shape and memory budget, the slabs tile
	// the strip-mined extent exactly once.
	f := func(rows8, cols8, mem16 uint8, byRow bool) bool {
		rows := int(rows8%32) + 1
		cols := int(cols8%32) + 1
		mem := int(mem16) + 1
		a := &Array{rows: rows, cols: cols}
		dim := ByColumn
		extent := cols
		if byRow {
			dim = ByRow
			extent = rows
		}
		s := a.Slabbing(dim, mem)
		covered := 0
		for i := 0; i < s.Count; i++ {
			start, size := s.slabBounds(i, extent)
			if start != covered || size < 1 {
				return false
			}
			covered += size
		}
		return covered == extent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNonSquareAndRaggedArrays(t *testing.T) {
	// 10 columns over 4 procs: blocks of 3,3,3,1.
	stats := &trace.IOStats{}
	disk := iosim.NewDisk(iosim.NewMemFS(), sim.Delta(4), stats)
	dm, err := dist.NewArray("r", dist.NewCollapsed(6), dist.NewBlock(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < 4; proc++ {
		arr, err := New(disk, dm, proc, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantCols := 3
		if proc == 3 {
			wantCols = 1
		}
		if arr.LocalCols() != wantCols || arr.LocalRows() != 6 {
			t.Fatalf("proc %d local shape %dx%d", proc, arr.LocalRows(), arr.LocalCols())
		}
		if err := arr.FillGlobal(valueAt); err != nil {
			t.Fatal(err)
		}
		m, err := arr.ReadLocal()
		if err != nil {
			t.Fatal(err)
		}
		gi, gj := arr.GlobalIndex(5, wantCols-1)
		if m.At(5, wantCols-1) != valueAt(gi, gj) {
			t.Fatalf("proc %d corner wrong", proc)
		}
	}
}

func TestNewRejectsNon2D(t *testing.T) {
	disk := iosim.NewDisk(iosim.NewMemFS(), sim.Delta(2), nil)
	dm, err := dist.NewArray("v", dist.NewBlock(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(disk, dm, 0, nil, Options{}); err == nil {
		t.Error("1-D array should be rejected")
	}
}

func TestDimString(t *testing.T) {
	if ByColumn.String() != "column-slab" || ByRow.String() != "row-slab" {
		t.Error("Dim.String spelling wrong")
	}
	if Dim(9).String() == "" {
		t.Error("unknown Dim should render")
	}
}

func TestReadSectionMatchesReadLocalProperty(t *testing.T) {
	// Property: any in-bounds section read returns exactly the
	// corresponding window of the local array, with and without sieving.
	arr, _ := newTestArray(t, 24, 3, 1, nil, Options{})
	sieved, _ := newTestArray(t, 24, 3, 1, nil, Options{Sieve: true})
	local, err := arr.ReadLocal()
	if err != nil {
		t.Fatal(err)
	}
	f := func(r0u, c0u, hu, wu uint8) bool {
		rows, cols := arr.LocalRows(), arr.LocalCols()
		r0 := int(r0u) % rows
		c0 := int(c0u) % cols
		h := int(hu)%(rows-r0) + 1
		w := int(wu)%(cols-c0) + 1
		for _, a := range []*Array{arr, sieved} {
			s, err := a.ReadSection(r0, c0, h, w)
			if err != nil {
				return false
			}
			for j := 0; j < w; j++ {
				for i := 0; i < h; i++ {
					if s.At(i, j) != local.At(r0+i, c0+j) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCyclicDistributedArray(t *testing.T) {
	// The runtime also handles cyclic column distributions: local column
	// lj of proc q corresponds to global column lj*P + q.
	stats := &trace.IOStats{}
	disk := iosim.NewDisk(iosim.NewMemFS(), sim.Delta(4), stats)
	dm, err := dist.NewArray("cyc", dist.NewCollapsed(8), dist.NewCyclic(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	arr, err := New(disk, dm, 2, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if arr.LocalCols() != 3 {
		t.Fatalf("local cols = %d", arr.LocalCols())
	}
	if err := arr.FillGlobal(valueAt); err != nil {
		t.Fatal(err)
	}
	m, err := arr.ReadLocal()
	if err != nil {
		t.Fatal(err)
	}
	for lj := 0; lj < 3; lj++ {
		gj := lj*4 + 2
		for li := 0; li < 8; li++ {
			if m.At(li, lj) != valueAt(li, gj) {
				t.Fatalf("cyclic local (%d,%d) wrong", li, lj)
			}
		}
	}
}
