package mp

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/bufpool"
)

// reduceTree performs a binomial-tree reduction rooted at root, folding
// each received contribution into the accumulator with combine (which
// must be associative: contributions combine in a fixed rank order).
// label names the collective's span. Each combine step is charged as
// len(data) flops. On root it returns the result (an arena buffer the
// caller owns); on other processors it returns nil. len(data) must
// match on all processors.
func (p *Proc) reduceTree(label string, root, tag int, data []float64, combine func(dst, src []float64)) []float64 {
	p.collective(label)
	acc := bufpool.GetF64(len(data))
	copy(acc, data)
	p.panicBufs[0] = acc
	r := p.relRank(root)
	size := p.Size()
	for mask := 1; mask < size; mask <<= 1 {
		if r&mask != 0 {
			dst := p.absRank(r-mask, root)
			p.panicBufs[0] = nil // ownership moves to the message
			p.SendOwned(dst, internalTagBase+tag, acc)
			if r != 0 {
				return nil
			}
			p.panicBufs[0] = acc
		} else if r+mask < size {
			src := p.absRank(r+mask, root)
			in := p.Recv(src, internalTagBase+tag)
			p.panicBufs[1] = in
			if len(in) != len(acc) {
				panic(fmt.Sprintf("mp: %s: reduction length mismatch %d vs %d", label, len(acc), len(in)))
			}
			combine(acc, in)
			p.Compute(int64(len(in)))
			p.panicBufs[1] = nil
			ReleaseBuf(in)
		}
	}
	p.panicBufs[0] = nil
	if r == 0 {
		return acc
	}
	return nil
}

// addInto accumulates src into dst elementwise.
func addInto(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// maxInto keeps the elementwise maximum of dst and src in dst.
func maxInto(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// AllReduceMax returns the elementwise maximum across processors — used
// by the runtime to agree on global loop bounds (e.g. slab counts on
// ragged distributions). The result is an arena buffer every rank owns.
// Non-roots pass their nil reduce result straight into Bcast, which
// never reads it there.
func (p *Proc) AllReduceMax(tag int, data []float64) []float64 {
	red := p.reduceTree("max", 0, tag, data, maxInto)
	p.panicBufs[0] = red // root holds the result across the broadcast's sends
	return p.Bcast(0, tag, red)
}
