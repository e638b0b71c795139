package atpg

import (
	"errors"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

// loadC432 parses testdata/c432.bench afresh.
func loadC432(t testing.TB) *logic.Circuit {
	t.Helper()
	src, err := os.ReadFile("../../testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	c, err := logic.ParseBenchString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// gradeFresh grades the full OBD universe of a circuit parsed from c's
// .bench text — the reference a mutated-then-regraded circuit must match.
func gradeFresh(t *testing.T, c *logic.Circuit, tests []TwoPattern) Coverage {
	t.Helper()
	txt, err := logic.FormatBench(c)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := logic.ParseBenchString(txt)
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(fresh)
	return must(NewScheduler(2).GradeOBD(fresh, faults, tests))
}

// TestGradeOBDConcurrentSameCircuit: once a first grade has validated the
// circuit and built its Index, further grades only read the circuit, so
// two goroutines may grade it at once (run under -race) and each gets the
// Coverage a lone grade gives.
func TestGradeOBDConcurrentSameCircuit(t *testing.T) {
	c := loadC432(t)
	faults, _ := fault.OBDUniverse(c)
	rng := rand.New(rand.NewSource(11))
	sets := [][]TwoPattern{completeRandomTests(rng, c, 256), randomTests(rng, c, 100)}
	want := make([]Coverage, len(sets))
	for k, tests := range sets {
		want[k] = must(NewScheduler(2).GradeOBD(c, faults, tests))
	}
	got := make([]Coverage, len(sets))
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for k := range sets {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k], errs[k] = NewScheduler(2).GradeOBD(c, faults, sets[k])
		}(k)
	}
	wg.Wait()
	for k := range sets {
		if errs[k] != nil {
			t.Fatalf("set %d: %v", k, errs[k])
		}
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("set %d: concurrent grade %v, lone grade %v", k, got[k], want[k])
		}
	}
}

// TestGradeOBDAfterCyclicAddGate: a grade caches the validation verdict,
// and an AddGate that closes a combinational cycle must drop it, so the
// next grade reports the cycle instead of grading a stale levelization.
func TestGradeOBDAfterCyclicAddGate(t *testing.T) {
	c := loadC432(t)
	faults, _ := fault.OBDUniverse(c)
	tests := completeRandomTests(rand.New(rand.NewSource(3)), c, 64)
	must(NewScheduler(2).GradeOBD(c, faults, tests))
	if _, err := c.AddGate("loop_a", logic.Nand, "loop_p", c.Inputs[0], "loop_q"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("loop_b", logic.Inv, "loop_q", "loop_p"); err != nil {
		t.Fatal(err)
	}
	var ice *InvalidCircuitError
	if _, err := NewScheduler(2).GradeOBD(c, faults, tests); !errors.As(err, &ice) {
		t.Fatalf("grade after a cycle-closing AddGate: %v, want *InvalidCircuitError", err)
	}
}

// TestGradeOBDAfterAddOutput: observing an internal net after a grade
// changes what the next grade sees; its Coverage equals the grade of a
// freshly parsed circuit with that output declared.
func TestGradeOBDAfterAddOutput(t *testing.T) {
	c := loadC432(t)
	faults, _ := fault.OBDUniverse(c)
	tests := completeRandomTests(rand.New(rand.NewSource(5)), c, 256)
	before := must(NewScheduler(2).GradeOBD(c, faults, tests))
	// Observe every internal net at level 2: their cones hide sites the
	// POs alone do not reach.
	for _, g := range c.Gates {
		if g.Level == 2 {
			c.AddOutput(g.Output)
		}
	}
	after := must(NewScheduler(2).GradeOBD(c, faults, tests))
	if after.Detected <= before.Detected {
		t.Fatalf("new outputs detected nothing new: %d before, %d after", before.Detected, after.Detected)
	}
	if want := gradeFresh(t, c, tests); !reflect.DeepEqual(after, want) {
		t.Fatalf("grade after AddOutput %v, freshly parsed %v", after, want)
	}
}

// TestGradeOBDAfterDirectGateAppend: appending to Gates directly bypasses
// the Add* invalidation, but Validate sees the length change, checks the
// circuit again and rebuilds the Index; the grade then covers the new
// gate exactly as a freshly parsed circuit does.
func TestGradeOBDAfterDirectGateAppend(t *testing.T) {
	c := loadC432(t)
	faults, _ := fault.OBDUniverse(c)
	tests := completeRandomTests(rand.New(rand.NewSource(9)), c, 128)
	must(NewScheduler(2).GradeOBD(c, faults, tests))
	x := c.Index()
	c.Gates = append(c.Gates, &logic.Gate{
		Name: "raw", Type: logic.Nand, Inputs: []string{c.Inputs[0], c.Inputs[1]}, Output: "raw", Ordinal: len(c.Gates),
	})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Index() == x {
		t.Fatal("direct append to Gates kept the old Index")
	}
	faults, _ = fault.OBDUniverse(c)
	got := must(NewScheduler(2).GradeOBD(c, faults, tests))
	if got.Total != len(faults) {
		t.Fatalf("graded %d faults, universe has %d", got.Total, len(faults))
	}
	if want := gradeFresh(t, c, tests); !reflect.DeepEqual(got, want) {
		t.Fatalf("grade after direct append %v, freshly parsed %v", got, want)
	}
}

// TestGradeOBDRepeatAllocs bounds the allocations of a repeated grade of
// an unchanged circuit: 256 complete pairs over the c432 universe (584
// faults) at one worker. The verdict and Index cached by the first grade
// are reused, so nothing scales with the circuit's gate count except the
// grader's own arrays. Measured 111 (go1.24.0); re-validating and
// rebuilding the Index on every call made it 538. What still allocates,
// per grade:
//   - coverage: one name per undetected fault (34 here) and the growth
//     of the Undetected slice;
//   - the grader: its struct, per-gate network table, block slice, and
//     four frame arrays per 64-pair block (the known rails of a complete
//     block are dropped after packing);
//   - the worker scratch, new per grader: newEventScratch and the first
//     growth of its level buckets and touched list;
//   - CollapseOBDComplete's seven flat arrays, the verdict slots and the
//     pool's closures.
func TestGradeOBDRepeatAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := loadC432(t)
	faults, _ := fault.OBDUniverse(c)
	tests := completeRandomTests(rand.New(rand.NewSource(1)), c, 256)
	s := NewScheduler(1)
	must(s.GradeOBD(c, faults, tests))
	const bound = 150 // ~35% headroom over the measured 111
	if allocs := testing.AllocsPerRun(20, func() { must(s.GradeOBD(c, faults, tests)) }); allocs > bound {
		t.Fatalf("repeated GradeOBD made %v allocations, want <= %d", allocs, bound)
	}
}
