package netcheck

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// This file extends fault.CollapseOBD's same-gate equivalence with a
// structural cross-gate rule, the inverter-chain merge. Let gate g drive
// net s, let s feed EXACTLY one gate — an inverter h — and let s not be a
// primary output. Then h is the first entry netcheck's dominator
// computation returns for any fault on g (the one-fanout cone makes it a
// dominator trivially), and more: every faulty value of s is observable
// only through h, and h adds no masking of its own. For a fault f of g
// that is EDGE-COMPLETE (excited by every complete local pair with its
// output edge — series NMOS/PMOS stacks and inverter devices, see
// fault.OBD.EdgeComplete), the matching-direction fault of h is excited
// by exactly the same complete vector pairs, and forcing s to its
// frame-1 value propagates through h to exactly the value h's own fault
// forces. The two faults are therefore detected by precisely the same
// complete pairs — per-pair, not merely per-set.
//
// The equivalence needs completeness: with X lanes, f additionally
// demands g's local values known in both frames, which h's fault does
// not, so a pair can excite one and not the other. Grading therefore
// applies this collapsing only to complete test sets
// (atpg.PairGrader.Complete), where the fan-out of a representative's
// verdicts onto its class is bit-identical to grading every site.

// CollapseOBDComplete partitions a fault list into classes that are
// pairwise equivalent under COMPLETE two-pattern sets: the union of
// fault.CollapseOBD's same-gate classes (exact for any pattern set) and
// the inverter-chain merges above (exact for complete sets). Each class
// holds ascending indices into faults; classes appear in first-member
// order and are sub-slices of one backing array. The circuit must
// validate.
//
// It is one linear pass over c.Index(): faults are chained per gate
// position, each fault's pair set and edge-completeness come from the
// process-wide fault.OBD.Shape table, and the chain rule reads IsPO,
// GateOut and Fanouts. The allocations are a fixed handful of arrays,
// whatever the number of faults, plus a map when faults sit on gates
// outside the circuit.
func CollapseOBDComplete(c *logic.Circuit, faults []fault.OBD) [][]int {
	n := len(faults)
	if n == 0 {
		return [][]int{}
	}
	x := c.Index()
	shapes := make([]fault.OBDShape, n)
	// head[p] is the first fault on gate position p and next[i] the fault
	// after i on the same gate, so each chain lists its faults ascending.
	// Gates outside the circuit get positions past len(x.Gates), keyed by
	// pointer: same-gate equivalence holds only within one instance.
	head := make([]int32, len(x.Gates))
	for p := range head {
		head[p] = -1
	}
	next := make([]int32, n)
	var outside map[*logic.Gate]int
	maxSet := int32(0)
	for i := n - 1; i >= 0; i-- {
		f := faults[i]
		shapes[i] = f.Shape()
		maxSet = max(maxSet, shapes[i].PairSet)
		p := gatePos(x, f.Gate)
		if p < 0 {
			if outside == nil {
				outside = make(map[*logic.Gate]int)
			}
			q, ok := outside[f.Gate]
			if !ok {
				q = len(head)
				outside[f.Gate] = q
				head = append(head, -1)
			}
			p = q
		}
		next[i] = head[p]
		head[p] = int32(i)
	}

	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = int32(i)
	}
	// first[s] is the first fault of the current gate with pair set s.
	first := make([]int32, maxSet+1)
	for s := range first {
		first[s] = -1
	}
	for p, h := range head {
		for i := h; i >= 0; i = next[i] {
			if s := shapes[i].PairSet; first[s] < 0 {
				first[s] = i
			} else {
				uf.union(first[s], i)
			}
		}
		for i := h; i >= 0; i = next[i] {
			first[shapes[i].PairSet] = -1
		}
		if p >= len(x.Gates) {
			continue // not wired in: chain reasoning is structural
		}
		inv := inverterLoad(x, p)
		if inv < 0 {
			continue
		}
		// img[side] caches the first fault of inv on its input with that
		// side (-2: not looked up yet). All such faults share a pair set,
		// so the same-gate pass already merged them.
		img := [2]int32{-2, -2}
		for i := h; i >= 0; i = next[i] {
			if !shapes[i].EdgeComplete {
				continue
			}
			// f drives its net to 0 (PullDown) ⇒ the net falls ⇒ the
			// inverter's output rises ⇒ its pull-up conducts the new value:
			// the image side is the opposite.
			side := fault.PullUp
			if faults[i].Side == fault.PullUp {
				side = fault.PullDown
			}
			if img[side] == -2 {
				img[side] = -1
				for j := head[inv]; j >= 0; j = next[j] {
					if faults[j].Input == 0 && faults[j].Side == side {
						img[side] = j
						break
					}
				}
			}
			if img[side] >= 0 {
				uf.union(i, img[side])
			}
		}
	}

	// Roots are class minima, so first-member order is ascending root
	// order. next is reused to count class sizes, then as fill offsets.
	size := next
	clear(size)
	classes := 0
	for i := range uf {
		r := uf.find(int32(i))
		uf[i] = r
		if r == int32(i) {
			classes++
		}
		size[r]++
	}
	flat := make([]int, n)
	out := make([][]int, 0, classes)
	off := int32(0)
	for i, r := range uf {
		if r == int32(i) {
			k := size[i]
			out = append(out, flat[off:off+k:off+k])
			size[i] = off
			off += k
		}
	}
	for i, r := range uf {
		flat[size[r]] = i
		size[r]++
	}
	return out
}

// gatePos is x.GatePos with the gate's Ordinal tried first: for gates
// added through AddGate it is their position, which spares the map.
func gatePos(x *logic.Index, g *logic.Gate) int {
	if o := g.Ordinal; o >= 0 && o < len(x.Gates) && x.Gates[o] == g {
		return o
	}
	return x.GatePos(g)
}

// inverterLoad returns the position of the inverter that is the only
// load of gate position p's output net, or -1 when that net is a primary
// output, fans out to more than one gate input, or feeds a non-inverter.
func inverterLoad(x *logic.Index, p int) int32 {
	out := x.GateOut[p]
	if x.IsPO[out] {
		return -1
	}
	fo := x.Fanouts[out]
	if len(fo) != 1 || x.Gates[fo[0]].Type != logic.Inv {
		return -1
	}
	return fo[0]
}

// unionFind is a disjoint-set forest over fault indices whose roots are
// always the smallest member of their set.
type unionFind []int32

func (u unionFind) find(i int32) int32 {
	for u[i] != i {
		u[i] = u[u[i]]
		i = u[i]
	}
	return i
}

func (u unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u[rb] = ra
}
