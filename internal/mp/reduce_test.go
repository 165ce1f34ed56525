package mp

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/ooc-hpf/passion/internal/sim"
)

func TestAllReduceMaxAcrossSizes(t *testing.T) {
	for _, procs := range []int{1, 2, 5, 8} {
		procs := procs
		t.Run(fmt.Sprintf("p=%d", procs), func(t *testing.T) {
			run(t, procs, func(p *Proc) error {
				max := p.AllReduceMax(1, []float64{float64(p.Rank()), -float64(p.Rank())})
				if max[0] != float64(procs-1) || max[1] != 0 {
					return fmt.Errorf("rank %d: max = %v", p.Rank(), max)
				}
				return nil
			})
		})
	}
}

func TestAllReduceMax(t *testing.T) {
	run(t, 6, func(p *Proc) error {
		got := p.AllReduceMax(3, []float64{float64(p.Rank() * 7 % 5)})
		if got[0] != 4 { // ranks 0..5 give 0,2,4,1,3,0 -> max 4
			return fmt.Errorf("rank %d: max = %v", p.Rank(), got)
		}
		return nil
	})
}

// TestAllReduceMaxChargesLikeAllReduce pins that the sum and max
// all-reductions share one tree: only the combine differs, so messages,
// flops and simulated time agree exactly.
func TestAllReduceMaxChargesLikeAllReduce(t *testing.T) {
	stats := func(max bool) []byte {
		st, err := Run(sim.Delta(7), func(p *Proc) error {
			data := []float64{float64(p.Rank()), 1}
			reduce, want := p.AllReduce, 21.0 // 0+1+...+6
			if max {
				reduce, want = p.AllReduceMax, 6
			}
			got := reduce(5, data)
			if got[0] != want {
				return fmt.Errorf("rank %d: got %v, want %g", p.Rank(), got, want)
			}
			ReleaseBuf(got)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(st.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if sum, max := stats(false), stats(true); string(sum) != string(max) {
		t.Errorf("AllReduceMax charges differ from AllReduce\n sum %s\n max %s", sum, max)
	}
}

func TestAllReduceMaxLengthMismatch(t *testing.T) {
	_, err := Run(sim.Delta(2), func(p *Proc) error {
		data := make([]float64, 1+p.Rank()) // different lengths
		p.AllReduceMax(1, data)
		return nil
	})
	if err == nil {
		t.Fatal("length mismatch should fail")
	}
}
