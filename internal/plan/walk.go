package plan

import (
	"fmt"
	"strings"
)

// NodeLabel names an IR node for trace overlays and disassembly: loops by
// their variable, redistributions by their endpoints, everything else by
// its bare type name. The bytecode compiler derives the KindNode span
// labels from it; package exec's golden fixtures pin the resulting span
// stream.
func NodeLabel(n Node) string {
	switch n := n.(type) {
	case *Loop:
		return "loop " + n.Var
	case *Redistribute:
		return "redistribute " + n.Src + "->" + n.Dst
	default:
		return strings.TrimPrefix(fmt.Sprintf("%T", n), "*plan.")
	}
}

// HasSumStore reports whether the body (recursively) performs a SumStore.
// SumStore's reductions force globally uniform iteration counts, which is
// what makes a loop's iteration boundaries collective-safe checkpoint
// points; the bytecode compiler uses it to place the loop checkpoints
// whose cursors package exec's golden fixtures pin.
func HasSumStore(body []Node) bool {
	for _, n := range body {
		switch n := n.(type) {
		case *SumStore:
			return true
		case *Loop:
			if HasSumStore(n.Body) {
				return true
			}
		}
	}
	return false
}
