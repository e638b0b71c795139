package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIndexStructure(t *testing.T) {
	c := C17()
	x := c.Index()
	if got := x.NumNets(); got != len(c.Inputs)+len(c.Gates) {
		t.Fatalf("nets: %d", got)
	}
	for name, id := range x.NetIDs {
		if x.NetNames[id] != name {
			t.Fatalf("NetIDs/NetNames disagree at %q", name)
		}
	}
	if len(x.InputIDs) != len(c.Inputs) || len(x.OutputIDs) != len(c.Outputs) {
		t.Fatalf("IO: %d/%d", len(x.InputIDs), len(x.OutputIDs))
	}
	for i, in := range c.Inputs {
		if x.NetNames[x.InputIDs[i]] != in {
			t.Fatalf("input %d mismatch", i)
		}
	}
	for i, po := range c.Outputs {
		if x.NetNames[x.OutputIDs[i]] != po || !x.IsPO[x.OutputIDs[i]] {
			t.Fatalf("output %d mismatch", i)
		}
	}
	for gi, g := range c.Gates {
		if x.GatePos(g) != gi || x.Gates[gi] != g {
			t.Fatalf("gate position %d mismatch", gi)
		}
		if x.NetNames[x.GateOut[gi]] != g.Output || int(x.GateLevel[gi]) != g.Level {
			t.Fatalf("gate %s out/level mismatch", g.Name)
		}
		for k, in := range g.Inputs {
			if x.NetNames[x.GateIn[gi][k]] != in {
				t.Fatalf("gate %s input %d mismatch", g.Name, k)
			}
		}
	}
	// Fanouts must agree with the string-keyed Fanout view.
	for id, name := range x.NetNames {
		want := c.Fanout(name)
		got := x.Fanouts[id]
		if len(want) != len(got) {
			t.Fatalf("fanout size of %s: %d vs %d", name, len(got), len(want))
		}
		for k := range got {
			if x.Gates[got[k]] != want[k] {
				t.Fatalf("fanout of %s differs at %d", name, k)
			}
		}
	}
	// Level buckets: every gate in exactly one bucket, at its own level.
	seen := 0
	for lvl, bucket := range x.Levels {
		for _, gi := range bucket {
			seen++
			if int(x.GateLevel[gi]) != lvl {
				t.Fatalf("gate %d bucketed at level %d, has level %d", gi, lvl, x.GateLevel[gi])
			}
		}
	}
	if seen != len(c.Gates) {
		t.Fatalf("buckets hold %d gates, want %d", seen, len(c.Gates))
	}
	if x.GatePos(&Gate{Name: "foreign"}) != -1 {
		t.Fatal("foreign gate must map to -1")
	}
}

func TestIndexCachedAndInvalidated(t *testing.T) {
	c := C17()
	x := c.Index()
	if c.Index() != x {
		t.Fatal("index not cached")
	}
	if err := c.AddInput("extra"); err != nil {
		t.Fatal(err)
	}
	y := c.Index()
	if y == x {
		t.Fatal("AddInput did not invalidate the index")
	}
	if y.NumNets() != x.NumNets()+1 {
		t.Fatalf("rebuilt index nets: %d", y.NumNets())
	}
	mustGate(t, c, "gx", Inv, "nx", "extra")
	z := c.Index()
	if z == y {
		t.Fatal("AddGate did not invalidate the index")
	}
	c.AddOutput("nx")
	w := c.Index()
	if w == z {
		t.Fatal("AddOutput did not invalidate the index")
	}
	// Re-validating an unmutated circuit keeps the verdict and the index.
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Index() != w {
		t.Fatal("Validate of an unmutated circuit rebuilt the index")
	}
	// Growing an exported slice directly bypasses invalidate; Validate
	// notices by length and Index is rebuilt.
	for _, grow := range []struct {
		name string
		do   func()
	}{
		{"Inputs", func() { c.Inputs = append(c.Inputs, "raw_in") }},
		{"Outputs", func() { c.Outputs = append(c.Outputs, c.Inputs[0]) }},
		{"Gates", func() {
			c.Gates = append(c.Gates, &Gate{Name: "graw", Type: Inv, Inputs: []string{c.Inputs[0]}, Output: "nraw", Ordinal: len(c.Gates)})
		}},
	} {
		before := c.Index()
		grow.do()
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", grow.name, err)
		}
		after := c.Index()
		if after == before {
			t.Fatalf("direct append to %s did not invalidate the index", grow.name)
		}
		if after.NumNets() != len(c.Inputs)+len(c.Gates) || len(after.OutputIDs) != len(c.Outputs) {
			t.Fatalf("%s: rebuilt index has %d nets, %d outputs", grow.name, after.NumNets(), len(after.OutputIDs))
		}
	}
}

// TestValidateRechecksDirectAppend: a verdict cached before a direct
// append to Gates does not survive it — a gate reading an undriven net
// added behind the circuit's back fails the next Validate, and so do
// the structural queries that validate implicitly.
func TestValidateRechecksDirectAppend(t *testing.T) {
	c := C17()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Gates = append(c.Gates, &Gate{Name: "bad", Type: Inv, Inputs: []string{"nosuch"}, Output: "nbad", Ordinal: len(c.Gates)})
	if err := c.Validate(); err == nil {
		t.Fatal("Validate kept a stale verdict after a direct append to Gates")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Index built over an invalid circuit")
		}
	}()
	c.Index()
}

// TestQuickIndexAgrees: on random circuits the index is a faithful
// renaming of the string-keyed structure.
func TestQuickIndexAgrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := RandomCircuit(rng, RandomOptions{Inputs: 1 + rng.Intn(6), Gates: 1 + rng.Intn(40)})
		x := c.Index()
		if x.NumNets() != len(c.Inputs)+len(c.Gates) {
			return false
		}
		for gi, g := range c.Gates {
			if x.GatePos(g) != gi || x.NetNames[x.GateOut[gi]] != g.Output {
				return false
			}
			for _, in := range x.GateIn[gi] {
				// Inputs must be levelized strictly below the gate.
				if d := c.Driver(x.NetNames[in]); d != nil && d.Level >= g.Level {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
