package main

import "testing"

func TestPercentileOfFixedSample(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // 1..100, unsorted
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	p90, err := tailPercentile(xs, 90)
	if err != nil || p90 != 90 {
		t.Errorf("p90 = %v, %v; want 90", p90, err)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if n := minSamplesFor(90); n != 100 {
		t.Errorf("minSamplesFor(90) = %d, want 100", n)
	}
	if n := minSamplesFor(99); n != 1000 {
		t.Errorf("minSamplesFor(99) = %d, want 1000", n)
	}
	xs := make([]float64, 99)
	if _, err := tailPercentile(xs, 90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := tailPercentile(append(xs, 1), 90); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
