package netcheck

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// collapseOBDCompleteRef is the map-based CollapseOBDComplete the dense
// pass replaced, kept verbatim as the reference the equivalence tests
// compare against: same-gate classes from fault.CollapseOBDIndices, the
// inverter-chain rule over Driver/Fanout and a string-keyed PO set.
func collapseOBDCompleteRef(c *logic.Circuit, faults []fault.OBD) [][]int {
	parent := make([]int, len(faults))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, cl := range fault.CollapseOBDIndices(faults) {
		for _, i := range cl[1:] {
			union(cl[0], i)
		}
	}
	type loc struct {
		g     *logic.Gate
		input int
		side  fault.Side
	}
	byLoc := make(map[loc][]int, len(faults))
	for i, f := range faults {
		k := loc{f.Gate, f.Input, f.Side}
		byLoc[k] = append(byLoc[k], i)
	}
	isPO := make(map[string]bool, len(c.Outputs))
	for _, po := range c.Outputs {
		isPO[po] = true
	}
	for i, f := range faults {
		s := f.Gate.Output
		// The driver check rejects synthetic gates that merely share a net
		// name with the circuit; chain reasoning is structural and only
		// applies to gates actually wired in.
		if !f.EdgeComplete() || isPO[s] || c.Driver(s) != f.Gate {
			continue
		}
		fo := c.Fanout(s)
		if len(fo) != 1 || fo[0].Type != logic.Inv {
			continue
		}
		// f drives s to 0 (PullDown) ⇒ s falls ⇒ h's output rises ⇒ h's
		// pull-up conducts the new value: the image side is the opposite.
		img := fault.PullUp
		if f.Side == fault.PullUp {
			img = fault.PullDown
		}
		for _, j := range byLoc[loc{fo[0], 0, img}] {
			union(i, j)
		}
	}
	groups := make(map[int][]int, len(faults))
	var order []int
	for i := range faults {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}
