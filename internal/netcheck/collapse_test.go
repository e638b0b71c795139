package netcheck

import (
	"math/rand"
	"os"
	"reflect"
	"testing"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

// chainCircuit builds NAND(a,b) → s → INV → t → INV → u with u a PO, the
// canonical inverter chain, optionally perturbed by the mutators below.
func chainCircuit(t *testing.T, mutate func(c *logic.Circuit)) *logic.Circuit {
	t.Helper()
	c := logic.New("chain")
	for _, in := range []string{"a", "b"} {
		if err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []struct {
		name string
		typ  logic.GateType
		out  string
		ins  []string
	}{
		{"g1", logic.Nand, "s", []string{"a", "b"}},
		{"h", logic.Inv, "t", []string{"s"}},
		{"k", logic.Inv, "u", []string{"t"}},
	} {
		if _, err := c.AddGate(g.name, g.typ, g.out, g.ins...); err != nil {
			t.Fatal(err)
		}
	}
	if mutate != nil {
		mutate(c)
	}
	c.AddOutput("u")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// classOf returns the class (as fault strings) containing the given fault.
func classOf(t *testing.T, faults []fault.OBD, classes [][]int, name string) map[string]bool {
	t.Helper()
	for _, cl := range classes {
		for _, fi := range cl {
			if faults[fi].String() == name {
				set := make(map[string]bool, len(cl))
				for _, fj := range cl {
					set[faults[fj].String()] = true
				}
				return set
			}
		}
	}
	t.Fatalf("fault %s not in any class", name)
	return nil
}

func TestCollapseCompleteChainMerges(t *testing.T) {
	c := chainCircuit(t, nil)
	faults, _ := fault.OBDUniverse(c)
	classes := CollapseOBDComplete(c, faults)
	if len(classes) != 4 {
		t.Fatalf("got %d classes, want 4", len(classes))
	}
	chain := classOf(t, faults, classes, "g1/NMOS@a")
	for _, want := range []string{"g1/NMOS@b", "h/PMOS@s", "k/NMOS@t"} {
		if !chain[want] {
			t.Errorf("chain class misses %s: %v", want, chain)
		}
	}
	if len(chain) != 4 {
		t.Errorf("chain class has %d members, want 4: %v", len(chain), chain)
	}
	comp := classOf(t, faults, classes, "h/NMOS@s")
	if len(comp) != 2 || !comp["k/PMOS@t"] {
		t.Errorf("complementary chain class wrong: %v", comp)
	}
	// The parallel PMOS defects of the NAND are not edge-complete and must
	// remain singletons.
	for _, name := range []string{"g1/PMOS@a", "g1/PMOS@b"} {
		if cl := classOf(t, faults, classes, name); len(cl) != 1 {
			t.Errorf("%s merged into %v; parallel devices must stay singletons", name, cl)
		}
	}
}

// TestCollapseCompleteGuards: each structural precondition of the chain
// rule, removed, must block the merge.
func TestCollapseCompleteGuards(t *testing.T) {
	countClasses := func(c *logic.Circuit) ([]fault.OBD, [][]int) {
		faults, _ := fault.OBDUniverse(c)
		return faults, CollapseOBDComplete(c, faults)
	}

	t.Run("intermediate net is a PO", func(t *testing.T) {
		c := chainCircuit(t, func(c *logic.Circuit) { c.AddOutput("s") })
		faults, classes := countClasses(c)
		// g1's NMOS pair still merges locally, but must not chain into h.
		cl := classOf(t, faults, classes, "g1/NMOS@a")
		if cl["h/PMOS@s"] {
			t.Errorf("merged across a PO net: %v", cl)
		}
	})

	t.Run("multi-fanout net", func(t *testing.T) {
		c := chainCircuit(t, func(c *logic.Circuit) {
			if _, err := c.AddGate("h2", logic.Inv, "t2", "s"); err != nil {
				t.Fatal(err)
			}
		})
		faults, classes := countClasses(c)
		cl := classOf(t, faults, classes, "g1/NMOS@a")
		if cl["h/PMOS@s"] || cl["h2/PMOS@s"] {
			t.Errorf("merged across a multi-fanout net: %v", cl)
		}
	})

	t.Run("fanout gate is not an inverter", func(t *testing.T) {
		c := logic.New("nandload")
		for _, in := range []string{"a", "b", "e"} {
			if err := c.AddInput(in); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.AddGate("g1", logic.Nand, "s", "a", "b"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddGate("h", logic.Nand, "t", "s", "e"); err != nil {
			t.Fatal(err)
		}
		c.AddOutput("t")
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		faults, classes := countClasses(c)
		cl := classOf(t, faults, classes, "g1/NMOS@a")
		if len(cl) != 2 || !cl["g1/NMOS@b"] {
			t.Errorf("NAND-loaded net class wrong: %v", cl)
		}
	})

	t.Run("synthetic gate sharing the net name", func(t *testing.T) {
		c := chainCircuit(t, nil)
		faults, _ := fault.OBDUniverse(c)
		// A gate that drives "s" by name but is not wired into the circuit:
		// the Driver identity check must keep its faults out of chains.
		syn := &logic.Gate{Name: "syn", Type: logic.Inv, Inputs: []string{"a"}, Output: "s"}
		faults = append(faults, fault.OBD{Gate: syn, Input: 0, Side: fault.PullDown})
		classes := CollapseOBDComplete(c, faults)
		cl := classOf(t, faults, classes, "syn/NMOS@a")
		if len(cl) != 1 {
			t.Errorf("synthetic gate fault merged via net-name collision: %v", cl)
		}
	})
}

// loadC432 parses the committed c432-class benchmark circuit.
func loadC432(t testing.TB) *logic.Circuit {
	t.Helper()
	f, err := os.Open("../../testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := logic.ParseBench(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// everySlot lists a fault for every (input, side) of every gate,
// composite gates included: those have no transistor networks, so their
// faults all share the empty pair set and are never edge-complete.
func everySlot(c *logic.Circuit) []fault.OBD {
	var out []fault.OBD
	for _, g := range c.Gates {
		for i := range g.Inputs {
			out = append(out,
				fault.OBD{Gate: g, Input: i, Side: fault.PullUp},
				fault.OBD{Gate: g, Input: i, Side: fault.PullDown})
		}
	}
	return out
}

// TestCollapseOBDCompleteMatchesReference pins the dense pass to the
// map-based reference: DeepEqual classes on random primitive and
// composite circuits and c432, over the full universe, every gate slot,
// shuffled and subsetted lists, duplicated faults, synthetic gates whose
// names and nets collide with circuit gates, and malformed sites.
func TestCollapseOBDCompleteMatchesReference(t *testing.T) {
	type named struct {
		name string
		c    *logic.Circuit
	}
	var circuits []named
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		rng := rand.New(rand.NewSource(seed))
		for _, prim := range []bool{true, false} {
			c := logic.RandomCircuit(rng, logic.RandomOptions{
				Inputs:    2 + rng.Intn(6),
				Gates:     10 + rng.Intn(300),
				Primitive: prim,
			})
			// The generator makes only fanout-free nets outputs; extra
			// outputs on loaded nets exercise the chain rule's PO guard.
			for _, g := range c.Gates {
				if rng.Intn(8) == 0 {
					c.AddOutput(g.Output)
				}
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			circuits = append(circuits, named{"random", c})
		}
	}
	circuits = append(circuits, named{"c432", loadC432(t)}, named{"chain", chainCircuit(t, nil)})

	rng := rand.New(rand.NewSource(99))
	for ci, nc := range circuits {
		c := nc.c
		universe, _ := fault.OBDUniverse(c)
		type list struct {
			name   string
			faults []fault.OBD
		}
		lists := []list{{"universe", universe}, {"slots", everySlot(c)}}
		shuffled := append([]fault.OBD(nil), universe...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		lists = append(lists, list{"shuffled", shuffled})
		var subset []fault.OBD
		for _, f := range universe {
			if rng.Intn(3) > 0 {
				subset = append(subset, f)
			}
		}
		lists = append(lists, list{"subset", subset})
		dup := append([]fault.OBD(nil), universe...)
		for k := 0; k < len(universe)/2+1 && len(universe) > 0; k++ {
			dup = append(dup, universe[rng.Intn(len(universe))])
		}
		rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
		lists = append(lists, list{"duplicated", dup})
		// Synthetic twins: same name, type, inputs and output net as a
		// circuit gate, but never added to the circuit.
		syn := append([]fault.OBD(nil), universe...)
		twins := map[*logic.Gate]*logic.Gate{}
		for _, f := range universe {
			if rng.Intn(4) > 0 {
				continue
			}
			tw, ok := twins[f.Gate]
			if !ok {
				cp := *f.Gate
				tw = &cp
				twins[f.Gate] = tw
			}
			syn = append(syn, fault.OBD{Gate: tw, Input: f.Input, Side: f.Side})
		}
		rng.Shuffle(len(syn), func(i, j int) { syn[i], syn[j] = syn[j], syn[i] })
		lists = append(lists, list{"synthetic", syn})
		// Malformed sites, listed first so chain lookups meet them before
		// the real faults: an input past the gate's arity and a side that
		// is neither network. Neither is excited by any pair.
		var bad []fault.OBD
		for _, g := range c.Gates {
			bad = append(bad,
				fault.OBD{Gate: g, Input: len(g.Inputs), Side: fault.PullUp},
				fault.OBD{Gate: g, Input: 0, Side: 2})
		}
		bad = append(bad, universe...)
		lists = append(lists, list{"malformed", bad})

		for _, l := range lists {
			want := collapseOBDCompleteRef(c, l.faults)
			got := CollapseOBDComplete(c, l.faults)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s #%d (%d gates), %s list of %d faults: classes differ from the reference",
					nc.name, ci, len(c.Gates), l.name, len(l.faults))
			}
		}
	}
}

// TestCollapseOBDCompleteAllocs: the pass allocates a fixed handful of
// arrays, so its allocation count cannot grow with the number of faults,
// and a warm fault.GateNetworks call hands out the shared trees without
// allocating.
func TestCollapseOBDCompleteAllocs(t *testing.T) {
	big := logic.RandomCircuit(rand.New(rand.NewSource(5)), logic.RandomOptions{
		Inputs: 32, Gates: 2000, Primitive: true,
	})
	for _, c := range []*logic.Circuit{loadC432(t), big} {
		faults, _ := fault.OBDUniverse(c)
		c.Index()
		allocs := testing.AllocsPerRun(20, func() { CollapseOBDComplete(c, faults) })
		if allocs > 16 {
			t.Errorf("%d gates, %d faults: CollapseOBDComplete allocated %v times per call, want <= 16",
				len(c.Gates), len(faults), allocs)
		}
	}
	fault.GateNetworks(logic.Nand, 3)
	if allocs := testing.AllocsPerRun(100, func() { fault.GateNetworks(logic.Nand, 3) }); allocs != 0 {
		t.Errorf("warm GateNetworks allocated %v times per call, want 0", allocs)
	}
}

// BenchmarkCollapseOBDComplete times the dense pass and the map-based
// reference over the full OBD universe of a 10,000-gate random primitive
// circuit (the generator's output at seed 1, 64 inputs).
func BenchmarkCollapseOBDComplete(b *testing.B) {
	c := logic.RandomCircuit(rand.New(rand.NewSource(1)), logic.RandomOptions{
		Inputs: 64, Gates: 10000, Primitive: true,
	})
	faults, _ := fault.OBDUniverse(c)
	c.Index()
	for _, impl := range []struct {
		name string
		fn   func(*logic.Circuit, []fault.OBD) [][]int
	}{{"dense", CollapseOBDComplete}, {"reference", collapseOBDCompleteRef}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.fn(c, faults)
			}
		})
	}
}
