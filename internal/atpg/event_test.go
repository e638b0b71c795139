package atpg

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
)

// completeRandomTests builds a test set whose patterns assign every input
// a known value — the precondition for single-rail blocks and collapsing.
func completeRandomTests(rng *rand.Rand, c *logic.Circuit, n int) []TwoPattern {
	mk := func() Pattern {
		p := make(Pattern, len(c.Inputs))
		for _, in := range c.Inputs {
			p[in] = logic.FromBool(rng.Intn(2) == 1)
		}
		return p
	}
	out := make([]TwoPattern, n)
	for i := range out {
		out[i] = TwoPattern{V1: mk(), V2: mk()}
	}
	return out
}

// sweepMasks returns a fault's per-block detection masks from the
// full-sweep reference grader, laneMask-clipped.
func sweepMasks(sg *SweepGrader, f fault.OBD) []uint64 {
	out := make([]uint64, 0, len(sg.blocks))
	for _, b := range sg.blocks {
		out = append(out, detectMaskWithEvals(sg.c, f, b.v2, b.g1v, b.g1k, b.g2v, b.g2k)&laneMask(b.n))
	}
	return out
}

// eventMasks returns a fault's per-block detection masks from the
// event-driven engine (already clipped by detectMaskEvent).
func eventMasks(pg *PairGrader, f fault.OBD) []uint64 {
	gp := pg.idx.GatePos(f.Gate)
	if gp < 0 {
		return nil
	}
	sc := pg.scratch.Get().(*eventScratch)
	defer pg.scratch.Put(sc)
	out := make([]uint64, 0, len(pg.blocks))
	for bi := range pg.blocks {
		out = append(out, pg.detectMaskEvent(&pg.blocks[bi], f, gp, sc))
	}
	return out
}

// TestEventGraderBitIdenticalToSweep: over random circuits (primitive and
// mixed gate sets) × random partial AND complete test sets, the event
// engine's per-lane detection masks equal the sweep grader's for every
// fault of the universe — not merely the summary verdicts.
func TestEventGraderBitIdenticalToSweep(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 2 + rng.Intn(5), Gates: 2 + rng.Intn(24), Primitive: seed%2 == 0})
		faults, _ := fault.OBDUniverse(c)
		for _, complete := range []bool{false, true} {
			var tests []TwoPattern
			if complete {
				tests = completeRandomTests(rng, c, 1+rng.Intn(150))
			} else {
				tests = randomTests(rng, c, 1+rng.Intn(150))
			}
			pg := NewPairGrader(c, tests)
			sg := NewSweepGrader(c, tests)
			for _, f := range faults {
				em, sm := eventMasks(pg, f), sweepMasks(sg, f)
				if !reflect.DeepEqual(em, sm) {
					t.Fatalf("seed %d complete=%v fault %v: event masks %x, sweep masks %x",
						seed, complete, f, em, sm)
				}
				if ef, sf := pg.FirstDetecting(f), sg.FirstDetecting(f); ef != sf {
					t.Fatalf("seed %d fault %v: FirstDetecting event %d sweep %d", seed, f, ef, sf)
				}
				if ec, sc := pg.CountDetecting(f), sg.CountDetecting(f); ec != sc {
					t.Fatalf("seed %d fault %v: CountDetecting event %d sweep %d", seed, f, ec, sc)
				}
			}
		}
	}
}

// TestEventGraderMatchesScalar pins the event engine to the scalar
// DetectsOBD semantics pair by pair: the per-lane mask bits are exactly
// the pairs the scalar grader detects.
func TestEventGraderMatchesScalar(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 2 + rng.Intn(4), Gates: 2 + rng.Intn(12), Primitive: seed%2 == 0})
		faults, _ := fault.OBDUniverse(c)
		tests := randomTests(rng, c, 1+rng.Intn(100))
		pg := NewPairGrader(c, tests)
		for _, f := range faults {
			masks := eventMasks(pg, f)
			for ti, tp := range tests {
				want := DetectsOBD(c, f, tp)
				got := masks[ti/64]&(1<<uint(ti%64)) != 0
				if got != want {
					t.Fatalf("seed %d fault %v pair %d: event %v scalar %v", seed, f, ti, got, want)
				}
			}
		}
	}
}

// TestGradeOBDCollapseEquivalence: collapsed grading fans class verdicts
// out to exactly the per-site Coverage of the uncollapsed run, the scalar
// reference, for every worker count, on complete and partial sets alike.
func TestGradeOBDCollapseEquivalence(t *testing.T) {
	circuits := 0
	for seed := int64(0); circuits < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Primitive circuits grow inverter chains; mixed ones exercise the
		// structural guards (XOR gates have no OBD networks to collapse).
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 2 + rng.Intn(4), Gates: 3 + rng.Intn(16), Primitive: seed%3 != 0})
		faults, _ := fault.OBDUniverse(c)
		if len(faults) < 2 {
			continue
		}
		circuits++
		for _, complete := range []bool{true, false} {
			var tests []TwoPattern
			if complete {
				tests = completeRandomTests(rng, c, 1+rng.Intn(120))
			} else {
				tests = randomTests(rng, c, 1+rng.Intn(120))
			}
			want := GradeOBD(c, faults, tests)
			for _, w := range sweepWorkers {
				s := NewScheduler(w)
				collapsed := must(s.gradeOBD(context.Background(), c, faults, tests, true))
				plain := must(s.gradeOBD(context.Background(), c, faults, tests, false))
				if !reflect.DeepEqual(collapsed, want) {
					t.Fatalf("seed %d workers %d complete=%v: collapsed %+v, scalar %+v",
						seed, w, complete, collapsed, want)
				}
				if !reflect.DeepEqual(plain, want) {
					t.Fatalf("seed %d workers %d complete=%v: uncollapsed %+v, scalar %+v",
						seed, w, complete, plain, want)
				}
			}
		}
	}
}

// TestCollapseClassesShareVerdicts: under complete test sets, every member
// of a CollapseOBDComplete class has bit-identical per-pair detection
// masks — the equivalence is per pair, which is what licenses grading the
// representative only.
func TestCollapseClassesShareVerdicts(t *testing.T) {
	merges := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 2 + rng.Intn(4), Gates: 3 + rng.Intn(16), Primitive: true})
		faults, _ := fault.OBDUniverse(c)
		tests := completeRandomTests(rng, c, 1+rng.Intn(120))
		pg := NewPairGrader(c, tests)
		if !pg.Complete() {
			t.Fatalf("seed %d: complete test set not recognised as complete", seed)
		}
		for _, cl := range netcheck.CollapseOBDComplete(c, faults) {
			if len(cl) > 1 {
				merges++
			}
			ref := eventMasks(pg, faults[cl[0]])
			for _, fi := range cl[1:] {
				if got := eventMasks(pg, faults[fi]); !reflect.DeepEqual(got, ref) {
					t.Fatalf("seed %d: class member %v masks %x differ from representative %v masks %x",
						seed, faults[fi], got, faults[cl[0]], ref)
				}
			}
		}
	}
	if merges == 0 {
		t.Fatal("no multi-fault class across 40 random circuits; collapsing never exercised")
	}
}

// TestCollapseChainHandcrafted pins the inverter-chain rule on the
// canonical chain NAND → INV → INV → PO: the series NMOS pair of the NAND
// merges with the first inverter's pull-up and the second inverter's
// pull-down, the complementary inverter sides merge with each other, and
// the parallel PMOS defects stay distinct — 4 classes from 8 sites. The
// collapsed exhaustive grade equals the uncollapsed one.
func TestCollapseChainHandcrafted(t *testing.T) {
	c := logic.New("chain")
	for _, in := range []string{"a", "b"} {
		if err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	must(c.AddGate("g1", logic.Nand, "s", "a", "b"))
	must(c.AddGate("h", logic.Inv, "t", "s"))
	must(c.AddGate("k", logic.Inv, "u", "t"))
	c.AddOutput("u")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(c)
	if len(faults) != 8 {
		t.Fatalf("universe has %d faults, want 8", len(faults))
	}
	classes := netcheck.CollapseOBDComplete(c, faults)
	if len(classes) != 4 {
		t.Fatalf("got %d classes, want 4: %v", len(classes), classes)
	}
	// Reassemble each class as a set of fault strings for shape checks.
	sets := make([]map[string]bool, len(classes))
	for i, cl := range classes {
		sets[i] = make(map[string]bool, len(cl))
		for _, fi := range cl {
			sets[i][faults[fi].String()] = true
		}
	}
	wantChain := map[string]bool{
		"g1/NMOS@a": true, "g1/NMOS@b": true, "h/PMOS@s": true, "k/NMOS@t": true,
	}
	wantPair := map[string]bool{"h/NMOS@s": true, "k/PMOS@t": true}
	found := 0
	for _, s := range sets {
		if reflect.DeepEqual(s, wantChain) || reflect.DeepEqual(s, wantPair) {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("chain classes not formed as expected: %v", sets)
	}

	// Exhaustive complete pairs: collapsed and uncollapsed grades agree.
	var tests []TwoPattern
	for m1 := 0; m1 < 4; m1++ {
		for m2 := 0; m2 < 4; m2++ {
			tests = append(tests, TwoPattern{
				V1: Pattern{"a": logic.FromBool(m1&1 != 0), "b": logic.FromBool(m1&2 != 0)},
				V2: Pattern{"a": logic.FromBool(m2&1 != 0), "b": logic.FromBool(m2&2 != 0)},
			})
		}
	}
	s := NewScheduler(1)
	collapsed := must(s.gradeOBD(context.Background(), c, faults, tests, true))
	plain := must(s.gradeOBD(context.Background(), c, faults, tests, false))
	if !reflect.DeepEqual(collapsed, plain) {
		t.Fatalf("collapsed %+v, uncollapsed %+v", collapsed, plain)
	}
	if !reflect.DeepEqual(collapsed, GradeOBD(c, faults, tests)) {
		t.Fatalf("collapsed grade diverges from scalar reference")
	}
}

// TestPairGraderCompleteGate: X-bearing or unassigned lanes must demote
// the grader to dual-rail and keep collapsing out of GradeOBD.
func TestPairGraderCompleteGate(t *testing.T) {
	c := logic.C17()
	rng := rand.New(rand.NewSource(7))
	if pg := NewPairGrader(c, completeRandomTests(rng, c, 70)); !pg.Complete() {
		t.Fatal("complete set reported incomplete")
	}
	tests := completeRandomTests(rng, c, 70)
	tests[66].V2[c.Inputs[3]] = logic.X
	if pg := NewPairGrader(c, tests); pg.Complete() {
		t.Fatal("X lane reported complete")
	}
	partial := completeRandomTests(rng, c, 3)
	delete(partial[1].V1, c.Inputs[0])
	if pg := NewPairGrader(c, partial); pg.Complete() {
		t.Fatal("unassigned input reported complete")
	}
}

// TestPairGraderForeignGateFallback: a fault on a gate outside the circuit
// must take the sweep fallback and agree with the scalar grader.
func TestPairGraderForeignGateFallback(t *testing.T) {
	c := logic.C17()
	rng := rand.New(rand.NewSource(11))
	tests := randomTests(rng, c, 40)
	// A synthetic local gate reading circuit nets but not wired into it.
	g := &logic.Gate{Name: "syn", Type: logic.Nand, Inputs: []string{"n1", "n3"}, Output: "n11"}
	f := fault.OBD{Gate: g, Input: 0, Side: fault.PullDown}
	pg := NewPairGrader(c, tests)
	if got := pg.idx.GatePos(g); got != -1 {
		t.Fatalf("foreign gate resolved to position %d", got)
	}
	want := -1
	for ti, tp := range tests {
		if DetectsOBD(c, f, tp) {
			want = ti
			break
		}
	}
	if got := pg.FirstDetecting(f); got != want {
		t.Fatalf("foreign-gate FirstDetecting %d, scalar %d", got, want)
	}
}

// TestDetectMaskEventZeroAlloc is the dynamic half of the hot-path
// contract: detectMaskEvent (marked //obdcheck:hotpath, statically
// audited by the hotalloc rule) must allocate nothing per graded fault
// once a worker's scratch is warm.
func TestDetectMaskEventZeroAlloc(t *testing.T) {
	c := logic.C17()
	rng := rand.New(rand.NewSource(7))
	tests := completeRandomTests(rng, c, 130) // three blocks, last partial-width
	pg := NewPairGrader(c, tests)
	faults, _ := fault.OBDUniverse(c)
	if len(faults) == 0 {
		t.Fatal("no faults in the universe")
	}
	sc := pg.scratch.Get().(*eventScratch)
	defer pg.scratch.Put(sc)
	// Warm pass: lets grow() size the gather buffers once.
	for _, f := range faults {
		if gp := pg.idx.GatePos(f.Gate); gp >= 0 {
			for bi := range pg.blocks {
				pg.detectMaskEvent(&pg.blocks[bi], f, gp, sc)
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, f := range faults {
			gp := pg.idx.GatePos(f.Gate)
			if gp < 0 {
				t.Fatalf("fault %v not on an indexed gate", f)
			}
			for bi := range pg.blocks {
				pg.detectMaskEvent(&pg.blocks[bi], f, gp, sc)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("detectMaskEvent allocated %v times per full-universe grade, want 0", allocs)
	}
}

// BenchmarkGradeOBDCollapse times a two-worker grade of 256 complete
// random pairs with and without fault collapsing, over the full OBD
// universes of testdata/c432.bench and of a 10,000-gate random primitive
// circuit (the generator's output at seed 1, 64 inputs).
func BenchmarkGradeOBDCollapse(b *testing.B) {
	src, err := os.ReadFile("../../testdata/c432.bench")
	if err != nil {
		b.Fatal(err)
	}
	c432, err := logic.ParseBenchString(string(src))
	if err != nil {
		b.Fatal(err)
	}
	big := logic.RandomCircuit(rand.New(rand.NewSource(1)), logic.RandomOptions{
		Inputs: 64, Gates: 10000, Primitive: true,
	})
	s := NewScheduler(2)
	for _, tc := range []struct {
		name string
		c    *logic.Circuit
	}{{"c432", c432}, {"10k", big}} {
		faults, _ := fault.OBDUniverse(tc.c)
		tests := completeRandomTests(rand.New(rand.NewSource(2)), tc.c, 256)
		for _, collapse := range []bool{true, false} {
			name := tc.name + "/uncollapsed"
			if collapse {
				name = tc.name + "/collapsed"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					must(s.gradeOBD(context.Background(), tc.c, faults, tests, collapse))
				}
			})
		}
	}
}
