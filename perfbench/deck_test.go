package main

import (
	"reflect"
	"testing"
)

var workloads = []string{"gaxpy-batch", "transpose-batch", "serve-mix"}

func TestDeckRepeatsForASeedAndDiffersForAnother(t *testing.T) {
	for _, w := range workloads {
		a, err := deckFor(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := deckFor(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different decks", w)
		}
		holdout, _ := deckFor(w, 1009)
		if reflect.DeepEqual(a, holdout) {
			t.Errorf("%s: seeds 7 and 1009 gave the same deck", w)
		}
	}
	if _, err := deckFor("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// Every seed must run the same mix of shapes: each stratum once per
// round, with n and memory inside the stratum's band.
func TestBatchDecksAreStratified(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		type stratum struct{ p, k, band int }
		count := map[stratum]int{}
		for _, j := range gaxpyDeck(seed) {
			s := j.Spec
			if s.N < 384 || s.N > 512 || s.N%16 != 0 {
				t.Fatalf("seed %d: gaxpy n=%d", seed, s.N)
			}
			band := (s.N-400+24)/48*48 + 400
			count[stratum{s.Procs, s.MemElems / s.N, band}]++
		}
		if len(count) != 27 {
			t.Fatalf("seed %d: %d gaxpy strata, want 27: %v", seed, len(count), count)
		}
		count = map[stratum]int{}
		for _, j := range transposeDeck(seed) {
			s := j.Spec
			if s.N < 1024 || s.N > 1536 || s.N%s.Procs != 0 || s.Force != "two-phase" {
				t.Fatalf("seed %d: transpose %s", seed, s)
			}
			band := (s.N-1088+96)/192*192 + 1088
			if d := s.N - band; d != -8 && d != 0 && d != 8 {
				t.Fatalf("seed %d: transpose n=%d is off its band", seed, s.N)
			}
			count[stratum{s.Procs, s.MemElems / s.N, band}]++
		}
		for st, c := range count {
			if c != 2 || len(count) != 12 {
				t.Fatalf("seed %d: transpose stratum %v appears %d times among %d strata", seed, st, c, len(count))
			}
		}
	}
}

func TestServeDeckShares(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		type cell struct {
			k Kernel
			n int
		}
		type shares struct{ jobs, chaos, parity, traced, fresh int }
		cells := map[cell]*shares{}
		tenants := map[string]int{}
		for _, j := range serveDeck(seed) {
			c := cell{j.Spec.Kernel, j.Spec.N}
			if cells[c] == nil {
				cells[c] = &shares{}
			}
			sh := cells[c]
			sh.jobs++
			tenants[j.Tenant]++
			if j.Spec.Chaos > 0 {
				sh.chaos++
			}
			if j.Spec.Parity {
				sh.parity++
			}
			if j.Spec.Chaos > 0 && j.Spec.Parity {
				t.Errorf("seed %d: a job carries two fault templates", seed)
			}
			if j.Trace {
				sh.traced++
			}
			if j.Fresh {
				sh.fresh++
			}
		}
		if len(cells) != 8 {
			t.Errorf("seed %d: %d kernel-size cells, want 8", seed, len(cells))
		}
		for c, sh := range cells {
			traced := 1
			if c.k == Gaxpy {
				traced = 0
			}
			if *sh != (shares{serveCell, 1, 1, traced, 2}) {
				t.Errorf("seed %d: cell %v has shares %+v", seed, c, *sh)
			}
		}
		for tn, n := range tenants {
			if n != 8*serveCell/serveTenants {
				t.Errorf("seed %d: tenant %s has %d jobs", seed, tn, n)
			}
		}
	}
}
