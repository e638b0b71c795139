package seq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// This file holds the scalar reference search: each free-bit assignment
// is built into a fresh pair and checked one at a time with the
// map-keyed atpg.DetectsOBD. TestGenerateMatchesScalar holds
// GenerateTestsOn to it.

// stateOf reads the present-state bits out of a complete core pattern.
func (s *Circuit) stateOf(p atpg.Pattern) State {
	st := make(State, len(s.FFs))
	for i, ff := range s.FFs {
		st[i] = p[ff.Q]
	}
	return st
}

// shiftState returns the 1-bit launch-on-shift successor of a state:
// scanIn enters at index 0 (the scan-in end) and every bit moves one
// position down the chain.
func shiftState(st State, scanIn logic.Value) State {
	next := make(State, len(st))
	prev := scanIn
	for i := range st {
		next[i] = prev
		prev = st[i]
	}
	return next
}

// buildPair assembles the pair selected by a free-bit assignment: bit(i)
// is the i-th free choice of the style's pair space (see styleBits). It
// returns nil for assignments the style cannot deliver (a LOC launch whose
// captured state is unknown — impossible for complete cores, kept for
// safety).
func buildPair(s *Circuit, style Style, bit func(i int) logic.Value) (*atpg.TwoPattern, error) {
	n := len(s.Core.Inputs)
	v1 := make(atpg.Pattern, n)
	for i, in := range s.Core.Inputs {
		v1[in] = bit(i)
	}
	piOf := func(base int) atpg.Pattern {
		pi := make(atpg.Pattern, len(s.PIs))
		for i, in := range s.PIs {
			pi[in] = bit(base + i)
		}
		return pi
	}
	switch style {
	case Enhanced:
		v2 := make(atpg.Pattern, n)
		for i, in := range s.Core.Inputs {
			v2[in] = bit(n + i)
		}
		return &atpg.TwoPattern{V1: v1, V2: v2}, nil
	case LOS:
		st2 := shiftState(s.stateOf(v1), bit(n))
		v2, err := s.CoreAssign(st2, piOf(n+1))
		if err != nil {
			return nil, err
		}
		return &atpg.TwoPattern{V1: v1, V2: v2}, nil
	case LOC:
		pi1 := make(atpg.Pattern, len(s.PIs))
		for _, in := range s.PIs {
			pi1[in] = v1[in]
		}
		st2, err := s.NextState(s.stateOf(v1), pi1)
		if err != nil {
			return nil, err
		}
		for _, v := range st2 {
			if !v.IsKnown() {
				return nil, nil
			}
		}
		v2, err := s.CoreAssign(st2, piOf(n))
		if err != nil {
			return nil, err
		}
		return &atpg.TwoPattern{V1: v1, V2: v2}, nil
	default:
		return nil, &StyleError{Style: style}
	}
}

// scalarGenerate is the scalar one-fault search: exhaustive up to
// opt.ExhaustiveMaxIn free bits, seeded sampling beyond.
func scalarGenerate(s *Circuit, f fault.OBD, style Style, opt *Options) (*atpg.TwoPattern, atpg.Status, error) {
	if opt == nil {
		opt = DefaultOptions()
	}
	bits, err := styleBits(s, style)
	if err != nil {
		return nil, atpg.Errored, err
	}
	// The exhaustive loop iterates one machine word; 30 bits is already a
	// billion pairs, far past any sensible ExhaustiveMaxIn.
	if bits <= opt.ExhaustiveMaxIn && bits <= 30 {
		for m := 0; m < 1<<uint(bits); m++ {
			tp, err := buildPair(s, style, func(i int) logic.Value {
				return logic.FromBool(m&(1<<uint(i)) != 0)
			})
			if err != nil {
				return nil, atpg.Errored, err
			}
			if tp != nil && atpg.DetectsOBD(s.Core, f, *tp) {
				return tp, atpg.Detected, nil
			}
		}
		return nil, atpg.Untestable, nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	for k := 0; k < opt.SampleBudget; k++ {
		draw := make([]logic.Value, bits)
		for i := range draw {
			draw[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		tp, err := buildPair(s, style, func(i int) logic.Value { return draw[i] })
		if err != nil {
			return nil, atpg.Errored, err
		}
		if tp != nil && atpg.DetectsOBD(s.Core, f, *tp) {
			return tp, atpg.Detected, nil
		}
	}
	return nil, atpg.Aborted, nil
}

// scalarGenerateTests is the batch driver over scalarGenerate, with the
// per-fault seeds and result assembly of GenerateTestsOn.
func scalarGenerateTests(s *Circuit, faults []fault.OBD, style Style, opt *Options) (*Result, error) {
	if opt == nil {
		opt = DefaultOptions()
	}
	bits, err := styleBits(s, style)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Style:    style,
		Statuses: make([]atpg.Status, len(faults)),
		Exact:    bits <= opt.ExhaustiveMaxIn && bits <= 30,
	}
	tps := make([]*atpg.TwoPattern, len(faults))
	errs := make([]error, len(faults))
	atpg.DefaultScheduler().ForEach(len(faults), func(i int) {
		o := *opt
		o.Seed = opt.Seed + int64(i)*0x9E3779B9 // decorrelate per-fault sampling
		tps[i], out.Statuses[i], errs[i] = scalarGenerate(s, faults[i], style, &o)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out.Coverage = atpg.Coverage{Total: len(faults)}
	for i, f := range faults {
		if out.Statuses[i] == atpg.Detected {
			out.Tests = append(out.Tests, *tps[i])
			out.Coverage.Detected++
		} else {
			out.Coverage.Undetected = append(out.Coverage.Undetected, f.String())
		}
	}
	return out, nil
}

// TestGenerateMatchesScalar: the PairGrader search returns exactly the
// scalar reference's result — statuses, the very test pairs, coverage
// and exactness — on circuits that take the exhaustive branch
// (randomSeq, Accumulator(2), Doubler(3)) and the sampling one
// (Accumulator(4) in enhanced and LOS scan), for every style and worker
// count.
func TestGenerateMatchesScalar(t *testing.T) {
	type tc struct {
		name string
		s    *Circuit
	}
	var cases []tc
	for _, seed := range []int64{1, 2, 3, 4, 39} {
		s, err := FromCircuit(randomSeq(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("randomSeq(%d)", seed), s})
	}
	for _, b := range []struct {
		name  string
		build func(int) (*Circuit, error)
		n     int
	}{{"accumulator2", Accumulator, 2}, {"accumulator4", Accumulator, 4}, {"doubler3", Doubler, 3}} {
		s, err := b.build(b.n)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{b.name, s})
	}
	sampled := 0
	for _, c := range cases {
		faults, _ := fault.OBDUniverse(c.s.Core)
		for _, style := range []Style{Enhanced, LOS, LOC} {
			want, err := scalarGenerateTests(c.s, faults, style, nil)
			if err != nil {
				t.Fatalf("%s %v: reference: %v", c.name, style, err)
			}
			if !want.Exact {
				sampled++
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := GenerateTestsOn(atpg.NewScheduler(workers), c.s, faults, style, nil)
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", c.name, style, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v workers=%d: result differs from the scalar search\n got %v\nwant %v",
						c.name, style, workers, got.Coverage, want.Coverage)
				}
			}
		}
	}
	if sampled == 0 {
		t.Fatal("no case took the sampling branch")
	}
}
