package fault

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"gobd/internal/logic"
)

// TestEdgeComplete pins the structural characterization: a fault is
// edge-complete exactly when its transistor sits on every conducting path
// of its pull network — series stacks and inverter devices, never members
// of a parallel group.
func TestEdgeComplete(t *testing.T) {
	mk := func(typ logic.GateType, n int) *logic.Gate {
		ins := []string{"a", "b", "c"}[:n]
		return &logic.Gate{Name: "g", Type: typ, Inputs: ins, Output: "y"}
	}
	cases := []struct {
		typ   logic.GateType
		n     int
		input int
		side  Side
		want  bool
	}{
		{logic.Inv, 1, 0, PullUp, true},
		{logic.Inv, 1, 0, PullDown, true},
		{logic.Nand, 2, 0, PullDown, true}, // series NMOS stack
		{logic.Nand, 2, 1, PullDown, true},
		{logic.Nand, 2, 0, PullUp, false}, // parallel PMOS
		{logic.Nand, 3, 2, PullDown, true},
		{logic.Nor, 2, 0, PullUp, true},    // series PMOS stack
		{logic.Nor, 2, 1, PullDown, false}, // parallel NMOS
		{logic.Aoi21, 3, 2, PullUp, true},  // c in series with the (a|b) pair
		{logic.Aoi21, 3, 0, PullUp, false}, // a inside the parallel pair
		{logic.Aoi21, 3, 1, PullUp, false},
		{logic.Aoi21, 3, 0, PullDown, false}, // every PD path has a parallel sibling
		{logic.Aoi21, 3, 2, PullDown, false},
		{logic.Oai21, 3, 2, PullDown, true},
		{logic.Oai21, 3, 2, PullUp, false},
	}
	for _, tc := range cases {
		f := OBD{Gate: mk(tc.typ, tc.n), Input: tc.input, Side: tc.side}
		if got := f.EdgeComplete(); got != tc.want {
			t.Errorf("%v %d-input %v@%d: EdgeComplete = %v, want %v",
				tc.typ, tc.n, tc.side, tc.input, got, tc.want)
		}
	}
	// Gates without transistor networks are never edge-complete.
	xor := OBD{Gate: mk(logic.Xor, 2), Input: 0, Side: PullDown}
	if xor.EdgeComplete() {
		t.Error("XOR fault reported edge-complete despite having no network")
	}
}

// TestCollapseIndicesKeyedByGateIdentity: two distinct gates with the SAME
// name must never merge — equivalence classes are per gate instance.
func TestCollapseIndicesKeyedByGateIdentity(t *testing.T) {
	g1 := &logic.Gate{Name: "g", Type: logic.Nand, Inputs: []string{"a", "b"}, Output: "y"}
	g2 := &logic.Gate{Name: "g", Type: logic.Nand, Inputs: []string{"a", "b"}, Output: "z"}
	faults := []OBD{
		{Gate: g1, Input: 0, Side: PullDown},
		{Gate: g2, Input: 0, Side: PullDown},
		{Gate: g1, Input: 1, Side: PullDown},
		{Gate: g2, Input: 1, Side: PullDown},
	}
	want := [][]int{{0, 2}, {1, 3}}
	if got := CollapseOBDIndices(faults); !reflect.DeepEqual(got, want) {
		t.Fatalf("CollapseOBDIndices = %v, want %v", got, want)
	}
}

// TestCollapseIndicesMatchCollapse: the index form is exactly CollapseOBD
// over positions, classes in first-member order, members ascending.
func TestCollapseIndicesMatchCollapse(t *testing.T) {
	g := &logic.Gate{Name: "g", Type: logic.Nand, Inputs: []string{"a", "b", "c"}, Output: "y"}
	faults := make([]OBD, 0, 6)
	for i := 0; i < 3; i++ {
		faults = append(faults, OBD{Gate: g, Input: i, Side: PullUp})
		faults = append(faults, OBD{Gate: g, Input: i, Side: PullDown})
	}
	idxs := CollapseOBDIndices(faults)
	cls := CollapseOBD(faults)
	if len(idxs) != len(cls) {
		t.Fatalf("index classes %d, fault classes %d", len(idxs), len(cls))
	}
	for ci, cl := range idxs {
		for mi, fi := range cl {
			if faults[fi] != cls[ci][mi] {
				t.Fatalf("class %d member %d: index %d resolves to %v, CollapseOBD has %v",
					ci, mi, fi, faults[fi], cls[ci][mi])
			}
			if mi > 0 && cl[mi-1] >= fi {
				t.Fatalf("class %d not ascending: %v", ci, cl)
			}
		}
	}
}

// TestOBDStringFormat pins the concatenating String to the fmt format it
// replaced, byte for byte, over the c432 universe.
func TestOBDStringFormat(t *testing.T) {
	src, err := os.ReadFile("../../testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	c, err := logic.ParseBenchString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := OBDUniverse(c)
	if len(faults) == 0 {
		t.Fatal("empty c432 universe")
	}
	for _, f := range faults {
		if got, want := f.String(), fmt.Sprintf("%s/%v@%s", f.Gate.Name, f.Side, f.Gate.Inputs[f.Input]); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

// TestShapeMatchesPairSets checks the shape table against its definition
// while goroutines fill it concurrently: PairSet ids are equal exactly
// when the excitation pair sets are, and EdgeComplete is the fault's own.
// The gates are shapes no other test of this package builds, so the
// table slots start cold; Side 2 takes the path the table skips.
func TestShapeMatchesPairSets(t *testing.T) {
	var faults []OBD
	for _, g := range []struct {
		typ   logic.GateType
		arity int
	}{{logic.Nor, 5}, {logic.Nand, 5}, {logic.Oai21, 3}, {logic.Xnor, 2}} {
		gate := syntheticGate(g.typ, g.arity)
		for i := 0; i < g.arity; i++ {
			for _, side := range []Side{PullUp, PullDown, 2} {
				faults = append(faults, OBD{Gate: gate, Input: i, Side: side})
			}
		}
	}
	got := make([][]OBDShape, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]OBDShape, len(faults))
			for i := range faults {
				f := faults[(i+w)%len(faults)]
				got[w][(i+w)%len(faults)] = f.Shape()
			}
		}()
	}
	wg.Wait()
	for w := range got[1:] {
		if !reflect.DeepEqual(got[w+1], got[0]) {
			t.Fatalf("goroutine %d saw different shapes than goroutine 0", w+1)
		}
	}
	shapes := got[0]
	for i, f := range faults {
		if shapes[i].EdgeComplete != f.EdgeComplete() {
			t.Errorf("%v side %d: EdgeComplete %v, fault says %v", f, f.Side, shapes[i].EdgeComplete, f.EdgeComplete())
		}
		for j, g := range faults[:i] {
			if same := pairSetKey(f) == pairSetKey(g); same != (shapes[i].PairSet == shapes[j].PairSet) {
				t.Errorf("%v side %d vs %v side %d: equal pair sets %v, equal ids %v",
					f, f.Side, g, g.Side, same, !same)
			}
		}
	}
}
