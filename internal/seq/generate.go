package seq

import (
	"math/rand"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// Options is the one knob set shared by every style's generator,
// replacing the per-style option structs of the old API (atpg.LOSOptions).
type Options struct {
	// SampleBudget bounds the random search used beyond the exhaustive
	// bound.
	SampleBudget int
	// ExhaustiveMaxIn is the free-bit count (styleBits) up to which the
	// style's pair space is searched exhaustively, making Untestable
	// verdicts exact. The effective bound is min(ExhaustiveMaxIn, 18):
	// EnumeratePairs lists at most 2^18 pairs.
	ExhaustiveMaxIn int
	// Seed drives the random sampling. Batch runs derive a per-fault seed
	// from it, so results are bit-identical for any worker count.
	Seed int64
}

// DefaultOptions returns the settings used by the experiments (the same
// numbers as the old atpg.DefaultLOSOptions).
func DefaultOptions() *Options {
	return &Options{SampleBudget: 4096, ExhaustiveMaxIn: 14, Seed: 1}
}

// Generate searches the style's pair space for a two-pattern test of one
// core OBD fault: GenerateTests over a one-fault list. Free-bit spaces up
// to the exhaustive bound (see Options) are searched exhaustively
// (Untestable verdicts are then exact); larger spaces fall back to
// opt.SampleBudget seeded random tries, where a miss is reported as
// Aborted. The error return is reserved for structural failures (unknown
// style) — search exhaustion is a status, not an error.
func Generate(s *Circuit, f fault.OBD, style Style, opt *Options) (*atpg.TwoPattern, atpg.Status, error) {
	res, err := GenerateTests(s, []fault.OBD{f}, style, opt)
	if err != nil {
		return nil, atpg.Errored, err
	}
	if res.Statuses[0] != atpg.Detected {
		return nil, res.Statuses[0], nil
	}
	return &res.Tests[0], atpg.Detected, nil
}

// GenerateLOCTest is Generate specialized to launch-on-capture — the
// broadside style the old API had no generator for.
func GenerateLOCTest(s *Circuit, f fault.OBD, opt *Options) (*atpg.TwoPattern, atpg.Status, error) {
	return Generate(s, f, LOC, opt)
}

// Result is the outcome of a batch generation run over one style.
type Result struct {
	Style    Style
	Tests    []atpg.TwoPattern // one per Detected fault, in fault order
	Statuses []atpg.Status     // per input fault
	Coverage atpg.Coverage
	Exact    bool // the Untestable verdicts are exhaustive
}

// GenerateTests runs the style's generator over a fault list across the
// default scheduler's pool. Every fault is searched independently with a
// seed derived from its index, so the result is bit-identical for any
// worker count.
func GenerateTests(s *Circuit, faults []fault.OBD, style Style, opt *Options) (*Result, error) {
	return GenerateTestsOn(atpg.DefaultScheduler(), s, faults, style, opt)
}

// GenerateTestsOn is GenerateTests on an explicit scheduler, for callers
// (the serving layer) that own a configured pool. The result does not
// depend on the scheduler's worker count.
//
// Within the exhaustive bound the style's whole space (EnumeratePairs) is
// graded once by one PairGrader the workers share, and each fault takes
// its first detecting pair. Beyond it each fault grades its own seeded
// draws 64 at a time. Both keep the free-bit order, so a fault's test is
// the pair a one-at-a-time search would stop at.
func GenerateTestsOn(sched *atpg.Scheduler, s *Circuit, faults []fault.OBD, style Style, opt *Options) (*Result, error) {
	if opt == nil {
		opt = DefaultOptions()
	}
	sp, err := newPairSpace(s, style)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Style:    style,
		Statuses: make([]atpg.Status, len(faults)),
		Exact:    sp.bits <= min(opt.ExhaustiveMaxIn, maxPairSpaceBits),
	}
	tps := make([]*atpg.TwoPattern, len(faults))
	if out.Exact {
		space := sp.enumerate()
		pg := atpg.NewPairGrader(s.Core, space)
		sched.ForEach(len(faults), func(i int) {
			out.Statuses[i] = atpg.Untestable
			//obdcheck:allow paniccontract — the sweep fallback shards pairs into 64-pattern blocks, so PackPatterns' at-most-64 precondition holds
			if k := pg.FirstDetecting(faults[i]); k >= 0 {
				tps[i], out.Statuses[i] = &space[k], atpg.Detected
			}
		})
	} else {
		s.Core.Index() // build the lazy index before the workers' graders share it
		sched.ForEach(len(faults), func(i int) {
			seed := opt.Seed + int64(i)*0x9E3779B9 // decorrelate per-fault sampling
			tps[i], out.Statuses[i] = sp.sample(faults[i], opt.SampleBudget, seed)
		})
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

// sample grades up to budget seeded draws from the pair space against one
// fault, 64 pairs per PairGrader. Each draw takes the style's free bits
// from the RNG in order, so the first detecting draw is the one a
// one-at-a-time search would stop at. A miss is Aborted: sampling proves
// nothing untestable.
func (sp *pairSpace) sample(f fault.OBD, budget int, seed int64) (*atpg.TwoPattern, atpg.Status) {
	rng := rand.New(rand.NewSource(seed))
	draw := make([]logic.Value, sp.bits)
	bit := func(i int) logic.Value { return draw[i] }
	for k := 0; k < budget; k += 64 {
		batch := make([]atpg.TwoPattern, 0, 64)
		for j := k; j < budget && j < k+64; j++ {
			for i := range draw {
				draw[i] = logic.FromBool(rng.Intn(2) == 1)
			}
			if tp, ok := sp.pair(bit); ok {
				batch = append(batch, tp)
			}
		}
		//obdcheck:allow paniccontract — a batch holds at most 64 pairs, within PackPatterns' at-most-64 precondition
		if i := atpg.NewPairGrader(sp.s.Core, batch).FirstDetecting(f); i >= 0 {
			return &batch[i], atpg.Detected
		}
	}
	return nil, atpg.Aborted
}

// GenerateLOCTests is GenerateTests specialized to launch-on-capture.
func GenerateLOCTests(s *Circuit, faults []fault.OBD, opt *Options) (*Result, error) {
	return GenerateTests(s, faults, LOC, opt)
}
