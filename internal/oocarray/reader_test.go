package oocarray

import (
	"testing"

	"github.com/ooc-hpf/passion/internal/sim"
)

func TestSlabReaderDeliversAllSlabs(t *testing.T) {
	arr, _ := newTestArray(t, 16, 4, 0, nil, Options{})
	s := arr.Slabbing(ByColumn, 16) // 1 column per slab, 4 slabs
	r := arr.NewSlabReader(s)
	seen := 0
	for {
		icla, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if icla.ColOff != seen {
			t.Fatalf("slab %d at ColOff %d", seen, icla.ColOff)
		}
		gi, gj := arr.GlobalIndex(3, icla.ColOff)
		if icla.At(3, 0) != valueAt(gi, gj) {
			t.Fatalf("slab %d contents wrong", seen)
		}
		seen++
	}
	if seen != 4 {
		t.Fatalf("delivered %d slabs, want 4", seen)
	}
	// Next after exhaustion keeps returning ok=false.
	if _, ok, _ := r.Next(); ok {
		t.Error("reader delivered past the end")
	}
}

func TestSlabReaderReset(t *testing.T) {
	arr, _ := newTestArray(t, 8, 2, 1, nil, Options{Prefetch: true})
	s := arr.Slabbing(ByColumn, 8)
	r := arr.NewSlabReader(s)
	first1, _, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	r.Reset()
	first2, _, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first1.ColOff != first2.ColOff || first1.At(0, 0) != first2.At(0, 0) {
		t.Error("Reset did not rewind to the first slab")
	}
	delivered := 1
	for {
		_, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		delivered++
	}
	if delivered != s.Count {
		t.Fatalf("delivered %d slabs after Reset, want %d", delivered, s.Count)
	}
}

func TestPrefetchOverlapsIO(t *testing.T) {
	// Two identical passes over the slabs, charging the same amount of
	// compute per slab. With prefetch, the I/O of slab i+1 hides behind
	// the compute on slab i, so the total simulated time must be lower.
	const n, p = 64, 2
	elapsed := func(prefetch bool) float64 {
		var clock sim.Clock
		arr, _ := newTestArray(t, n, p, 0, &clock, Options{Prefetch: prefetch})
		s := arr.Slabbing(ByColumn, n*4) // 8 slabs of 4 columns
		r := arr.NewSlabReader(s)
		cfg := sim.Delta(p)
		for {
			_, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			// Charge compute comparable to the slab's I/O time.
			clock.Advance(cfg.IOTime(1, int64(n*4*cfg.ElemSize)))
		}
		return clock.Seconds()
	}
	plain, overlapped := elapsed(false), elapsed(true)
	if overlapped >= plain {
		t.Errorf("prefetch did not help: %g vs %g", overlapped, plain)
	}
	// With compute >= I/O per slab, all but the first fetch hide
	// completely: overlapped ~ plain - 7/15 of total... just require a
	// meaningful gap.
	if overlapped > 0.8*plain {
		t.Errorf("prefetch overlap too weak: %g vs %g", overlapped, plain)
	}
}

func TestPrefetchSameDataAndCounts(t *testing.T) {
	// Prefetching must not change what is read or how much.
	read := func(prefetch bool) ([]float64, int64) {
		arr, stats := newTestArray(t, 16, 4, 2, nil, Options{Prefetch: prefetch})
		s := arr.Slabbing(ByColumn, 16)
		r := arr.NewSlabReader(s)
		var all []float64
		for {
			icla, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			all = append(all, icla.Data...)
		}
		return all, stats.SlabReads
	}
	a, ca := read(false)
	b, cb := read(true)
	if ca != cb {
		t.Errorf("slab read counts differ: %d vs %d", ca, cb)
	}
	if len(a) != len(b) {
		t.Fatalf("data lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("data differs at %d", i)
		}
	}
}
