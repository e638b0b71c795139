package fault

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gobd/internal/logic"
)

// CollapseOBD partitions an OBD fault list into local-equivalence classes:
// two faults of the SAME gate are equivalent when their excitation pair
// sets are identical, because they then produce exactly the same slowed
// transition at the same site for every possible vector pair — no test can
// tell them apart anywhere in any circuit. For a NAND this merges the
// series NMOS defects (all excited by every falling pair) while keeping
// each parallel PMOS defect distinct, mirroring the paper's Table 1
// structure. The first fault of each class is its representative.
func CollapseOBD(faults []OBD) [][]OBD {
	out := make([][]OBD, 0)
	for _, idxs := range CollapseOBDIndices(faults) {
		cl := make([]OBD, 0, len(idxs))
		for _, i := range idxs {
			cl = append(cl, faults[i])
		}
		out = append(out, cl)
	}
	return out
}

// CollapseOBDIndices is CollapseOBD over fault-list positions: each class
// holds the indices of its members in ascending order, and classes appear
// in first-member order. The index form is what grading uses to fan a
// representative's verdicts back out onto every collapsed site.
func CollapseOBDIndices(faults []OBD) [][]int {
	// Gates are keyed by identity, not name: a fault list may mix gates
	// from different circuits (or synthetic local gates) whose names
	// collide, and same-gate equivalence only holds within one instance.
	type key struct {
		g     *logic.Gate
		pairs string
	}
	byKey := make(map[key][]int)
	var order []key
	for i, f := range faults {
		k := key{f.Gate, pairSetKey(f)}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	out := make([][]int, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k])
	}
	return out
}

// EdgeComplete reports whether the fault is excited by EVERY complete
// local vector pair that makes the matching output transition — true
// exactly when the defective transistor lies on every conducting path of
// its pull network, i.e. every ancestor of its leaf is a Series node (or
// the leaf is the whole network, as in an inverter). For such faults the
// conduction conditions are implied by the output edge itself: the side
// conducting means all series devices are on, and removing any one cuts
// the only path. Series NMOS stacks (NAND pull-down), series PMOS stacks
// (NOR pull-up) and both inverter devices qualify; parallel devices do
// not (their excitation additionally demands solitary conduction).
// Edge-complete faults are what inverter-chain collapsing may merge
// across gates (see netcheck.CollapseOBDComplete).
func (f OBD) EdgeComplete() bool {
	nets, ok := GateNetworks(f.Gate.Type, len(f.Gate.Inputs))
	if !ok {
		return false
	}
	n := nets.PullUp
	if f.Side == PullDown {
		n = nets.PullDown
	}
	_, all := onEveryPath(n, f.Input)
	return all
}

// onEveryPath walks the network for the leaf of the given input:
// contains reports the leaf is in this subtree, all that every ancestor
// within the subtree keeps it on every conducting path.
func onEveryPath(n *Network, input int) (contains, all bool) {
	switch n.Kind {
	case Leaf:
		return n.Input == input, n.Input == input
	case Series:
		for _, ch := range n.Children {
			if c, a := onEveryPath(ch, input); c {
				return true, a
			}
		}
		return false, false
	default: // Parallel: a sibling branch can conduct around the leaf
		for _, ch := range n.Children {
			if c, _ := onEveryPath(ch, input); c {
				return true, false
			}
		}
		return false, false
	}
}

// Representatives returns one fault per equivalence class.
func Representatives(classes [][]OBD) []OBD {
	out := make([]OBD, 0, len(classes))
	for _, cl := range classes {
		out = append(out, cl[0])
	}
	return out
}

// pairKeyID identifies an excitation pair set without the gate instance:
// the set is determined by the gate function and the defect location
// alone, so the canonical key can be computed once per shape and shared
// across every instance in a big circuit.
type pairKeyID struct {
	typ   logic.GateType
	arity int
	input int
	side  Side
}

var pairKeyCache sync.Map // pairKeyID → string

// pairSetKey canonicalizes a fault's excitation pair set.
func pairSetKey(f OBD) string {
	id := pairKeyID{f.Gate.Type, len(f.Gate.Inputs), f.Input, f.Side}
	if v, ok := pairKeyCache.Load(id); ok {
		return v.(string)
	}
	ps := f.ExcitationPairs()
	ss := make([]string, len(ps))
	for i, p := range ps {
		ss[i] = p.String()
	}
	sort.Strings(ss)
	key := strings.Join(ss, ";")
	pairKeyCache.Store(id, key)
	return key
}

// OBDShape is what fault collapsing needs to know about an OBD fault
// apart from its gate instance. It depends only on the gate type, the
// arity, the input and the side, so it is computed once per process for
// each such combination and shared by every instance.
type OBDShape struct {
	// PairSet names the excitation pair set: two faults' PairSet ids are
	// equal exactly when their ExcitationPairs are the same set.
	PairSet int32
	// EdgeComplete is OBD.EdgeComplete.
	EdgeComplete bool
}

// Shape returns the fault's OBDShape. For gates of up to 16 inputs and
// faults with an in-range input and a PullUp/PullDown side, a warm call
// is an array lookup that allocates nothing.
func (f OBD) Shape() OBDShape {
	t, arity := f.Gate.Type, len(f.Gate.Inputs)
	if t < 0 || int(t) >= len(shapeTable) || arity >= len(shapeTable[t]) ||
		f.Input < 0 || f.Input >= arity || (f.Side != PullUp && f.Side != PullDown) {
		return shapeOf(f)
	}
	slot := &shapeTable[t][arity]
	shapes := slot.Load()
	if shapes == nil {
		// Concurrent first calls may both build; the results are equal.
		g := syntheticGate(t, arity)
		built := make([]OBDShape, 2*arity)
		for i := range built {
			built[i] = shapeOf(OBD{Gate: g, Input: i / 2, Side: Side(i % 2)})
		}
		shapes = &built
		slot.Store(shapes)
	}
	return (*shapes)[2*f.Input+int(f.Side)]
}

// shapeTable holds, per gate type and arity, the shapes of every
// (input, side) slot at index 2*input+side.
var shapeTable [logic.Dff + 1][maxTableArity + 1]atomic.Pointer[[]OBDShape]

// shapeMemo interns pair-set keys into PairSet ids.
var shapeMemo = struct {
	sync.Mutex
	ids map[string]int32
}{ids: make(map[string]int32)}

// shapeOf computes the shape of f; Shape's table caches the common ones.
func shapeOf(f OBD) OBDShape {
	key := pairSetKey(f)
	shapeMemo.Lock()
	defer shapeMemo.Unlock()
	ps, ok := shapeMemo.ids[key]
	if !ok {
		ps = int32(len(shapeMemo.ids))
		shapeMemo.ids[key] = ps
	}
	return OBDShape{PairSet: ps, EdgeComplete: f.EdgeComplete()}
}
