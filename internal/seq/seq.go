// Package seq models sequential circuits as a combinational core plus a
// scan chain of flip-flops, and implements the test-application styles the
// paper's Section 5 DFT discussion contrasts: two-pattern OBD tests need
// two specific vectors on consecutive clocks, which standard scan cannot
// deliver freely. Enhanced scan applies arbitrary pairs; launch-on-shift
// derives the second vector by shifting the chain; launch-on-capture
// (broadside) derives it through the circuit's own next-state function —
// each tighter constraint shrinks the reachable pair space and with it the
// OBD coverage.
//
// The primary entry points are netlist-first: FromCircuit lifts any
// DFF-bearing logic.Circuit into the scan model (chain order = netlist
// order), Insert stitches a scan model back into a flat netlist, and
// Unroll time-frame-expands the model into one combinational circuit the
// combinational ATPG/SAT stack runs unchanged. Test generation is unified
// behind the Style enum (Enhanced, LOS, LOC) and shared Options:
// GenerateTests / GenerateLOCTests for batches, Generate for one fault,
// StyleCoverage for exhaustive pair-space grading. Every style is searched
// the same way: one definition of its launchable pairs (EnumeratePairs
// lists them) graded by the bit-parallel atpg.PairGrader.
package seq

import (
	"fmt"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// FF is one scan flip-flop: its output Q feeds a core input (present
// state) and its input D is driven by a core net (next state).
type FF struct {
	Q string // core input net carrying the present state
	D string // core net captured as the next state
}

// Circuit is a sequential circuit: a combinational core whose inputs are
// the primary inputs plus the FF outputs, and whose nets drive the primary
// outputs and the FF inputs. FFs are listed in scan-chain order (index 0
// is the scan-in end).
type Circuit struct {
	Core *logic.Circuit
	FFs  []FF
	PIs  []string // core inputs that are true primary inputs
	POs  []string // observable core outputs
}

// ChainError is a typed scan-chain construction failure from FromCircuit
// or Insert: the flip-flop list does not fit the combinational core.
type ChainError struct{ Msg string }

func (e *ChainError) Error() string { return "seq: " + e.Msg }

// build validates and assembles the scan model shared by FromCircuit,
// Insert and the testbed builders.
func build(core *logic.Circuit, ffs []FF) (*Circuit, error) {
	if err := core.Validate(); err != nil {
		return nil, err
	}
	isQ := make(map[string]bool, len(ffs))
	for _, ff := range ffs {
		if !core.IsInput(ff.Q) {
			return nil, &ChainError{Msg: fmt.Sprintf("FF output %q is not a core input", ff.Q)}
		}
		if isQ[ff.Q] {
			return nil, &ChainError{Msg: fmt.Sprintf("core input %q fed by two flip-flops", ff.Q)}
		}
		isQ[ff.Q] = true
		if core.Driver(ff.D) == nil && !core.IsInput(ff.D) {
			return nil, &ChainError{Msg: fmt.Sprintf("FF input net %q is undriven", ff.D)}
		}
	}
	s := &Circuit{Core: core, FFs: ffs}
	for _, in := range core.Inputs {
		if !isQ[in] {
			s.PIs = append(s.PIs, in)
		}
	}
	s.POs = append(s.POs, core.Outputs...)
	return s, nil
}

// State is a present-state assignment in scan-chain order.
type State []logic.Value

// AssignError is a typed pattern-assembly failure from CoreAssign: the
// state or primary-input assignment does not cover the core's inputs.
type AssignError struct{ Msg string }

func (e *AssignError) Error() string { return "seq: " + e.Msg }

// CoreAssign merges a state and a primary-input assignment into a complete
// core input pattern.
func (s *Circuit) CoreAssign(st State, pi atpg.Pattern) (atpg.Pattern, error) {
	if len(st) != len(s.FFs) {
		return nil, &AssignError{Msg: fmt.Sprintf("state width %d, want %d", len(st), len(s.FFs))}
	}
	p := make(atpg.Pattern, len(s.Core.Inputs))
	for i, ff := range s.FFs {
		p[ff.Q] = st[i]
	}
	for _, in := range s.PIs {
		v, ok := pi[in]
		if !ok {
			return nil, &AssignError{Msg: fmt.Sprintf("primary input %q unassigned", in)}
		}
		p[in] = v
	}
	return p, nil
}

// NextState evaluates the core under (state, pi) and returns the values
// captured by the flip-flops.
func (s *Circuit) NextState(st State, pi atpg.Pattern) (State, error) {
	assign, err := s.CoreAssign(st, pi)
	if err != nil {
		return nil, err
	}
	vals := s.Core.Eval(assign, nil)
	next := make(State, len(s.FFs))
	for i, ff := range s.FFs {
		next[i] = vals[ff.D]
	}
	return next, nil
}

// Style is a two-pattern test-application style — the one enum every
// generator in this package dispatches on.
type Style int

// Test-application styles, ordered by shrinking pair space: every LOS or
// LOC pair is also an enhanced-scan pair.
const (
	Enhanced Style = iota // arbitrary vector pairs (hold-scan cells)
	LOS                   // launch-on-shift: second state = 1-bit chain shift of the first
	LOC                   // launch-on-capture (broadside): second state = the circuit's own next state
)

// String implements fmt.Stringer.
func (m Style) String() string {
	switch m {
	case Enhanced:
		return "enhanced-scan"
	case LOS:
		return "launch-on-shift"
	case LOC:
		return "launch-on-capture"
	default:
		return fmt.Sprintf("Style(%d)", int(m))
	}
}

// ParseStyle resolves a style name: the CLI spellings "enhanced", "los",
// "loc" or the long String forms.
func ParseStyle(name string) (Style, error) {
	switch name {
	case "enhanced", "enhanced-scan":
		return Enhanced, nil
	case "los", "launch-on-shift":
		return LOS, nil
	case "loc", "launch-on-capture":
		return LOC, nil
	default:
		return 0, &StyleError{Name: name}
	}
}

// StyleError is a typed failure naming a Style outside the declared enum
// (Style set, Name empty) or an unparseable style name (Name set).
type StyleError struct {
	Style Style
	Name  string
}

func (e *StyleError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("seq: unknown style %q (want enhanced, los or loc)", e.Name)
	}
	return fmt.Sprintf("seq: unknown style %v", e.Style)
}

// maxPairSpaceBits bounds the enumerated pair spaces.
const maxPairSpaceBits = 18

// SpaceLimitError is a typed EnumeratePairs failure: the style's pair
// space needs more bits than maxPairSpaceBits allows to enumerate.
type SpaceLimitError struct {
	Mode  Style
	Bits  int // bits the space would span
	Limit int // the maxPairSpaceBits cap
}

func (e *SpaceLimitError) Error() string {
	return fmt.Sprintf("seq: %s pair space needs %d bits (limit %d)", e.Mode, e.Bits, e.Limit)
}

// styleBits returns the free-bit count of one style's pair space: the
// number of independent 0/1 choices that determine a deliverable pair.
func styleBits(s *Circuit, style Style) (int, error) {
	nCore, nPI := len(s.Core.Inputs), len(s.PIs)
	switch style {
	case Enhanced:
		return 2 * nCore, nil
	case LOS:
		return nCore + 1 + nPI, nil
	case LOC:
		return nCore + nPI, nil
	default:
		return 0, &StyleError{Style: style}
	}
}

// pairSpace is the one definition of the pairs a style can launch. A pair
// is selected by the style's free choices (see styleBits): choice i < n is
// core input i of V1, and the rest fill what the style leaves free in V2 —
// all of it for Enhanced, the scan-in bit and then the primary inputs for
// LOS, the primary inputs for LOC.
type pairSpace struct {
	s     *Circuit
	style Style
	bits  int
	qPos  []int // core-input position of each FF's Q, in chain order
	piPos []int // core-input position of each primary input
	// table, when set, holds every complete core pattern (bit i of the
	// index is core input i), shared by all pairs built from it.
	table []atpg.Pattern
}

func newPairSpace(s *Circuit, style Style) (*pairSpace, error) {
	bits, err := styleBits(s, style)
	if err != nil {
		return nil, err
	}
	pos := make(map[string]int, len(s.Core.Inputs))
	for i, in := range s.Core.Inputs {
		pos[in] = i
	}
	sp := &pairSpace{s: s, style: style, bits: bits}
	for _, ff := range s.FFs {
		sp.qPos = append(sp.qPos, pos[ff.Q])
	}
	for _, in := range s.PIs {
		sp.piPos = append(sp.piPos, pos[in])
	}
	return sp, nil
}

// pair builds the pair selected by the free choices bit(i). ok is false
// for a choice the style cannot launch: a LOC capture of an unknown state
// (impossible for complete cores, kept for safety).
func (sp *pairSpace) pair(bit func(i int) logic.Value) (tp atpg.TwoPattern, ok bool) {
	n := len(sp.s.Core.Inputs)
	v1, v2 := make([]logic.Value, n), make([]logic.Value, n)
	for i := range v1 {
		v1[i] = bit(i)
	}
	tp.V1 = sp.pattern(v1)
	next := n // the first free choice of V2's primary inputs
	switch sp.style {
	case Enhanced:
		for i := range v2 {
			v2[i] = bit(n + i)
		}
		tp.V2 = sp.pattern(v2)
		return tp, true
	case LOS:
		// Shift the chain by one: the scan-in bit enters at index 0.
		in := bit(n)
		for _, q := range sp.qPos {
			v2[q], in = in, v1[q]
		}
		next++
	case LOC:
		vals := sp.s.Core.Eval(tp.V1, nil)
		for j, ff := range sp.s.FFs {
			if v2[sp.qPos[j]] = vals[ff.D]; !v2[sp.qPos[j]].IsKnown() {
				return tp, false
			}
		}
	}
	for k, p := range sp.piPos {
		v2[p] = bit(next + k)
	}
	tp.V2 = sp.pattern(v2)
	return tp, true
}

// pattern returns the core pattern of a value vector in core-input order:
// the shared table entry when there is a table, a fresh map otherwise.
func (sp *pairSpace) pattern(vals []logic.Value) atpg.Pattern {
	if sp.table != nil {
		idx := 0
		for i, v := range vals {
			if v == logic.One {
				idx |= 1 << i
			}
		}
		return sp.table[idx]
	}
	p := make(atpg.Pattern, len(vals))
	for i, in := range sp.s.Core.Inputs {
		p[in] = vals[i]
	}
	return p
}

// enumerate lists the whole space in free-bit order: bit i of the index
// is choice i, so V1 varies fastest. It first builds the shared pattern
// table, so every listed pair reuses its maps. The caller bounds sp.bits.
func (sp *pairSpace) enumerate() []atpg.TwoPattern {
	n := len(sp.s.Core.Inputs)
	sp.table = make([]atpg.Pattern, 1<<n)
	for m := range sp.table {
		sp.table[m] = make(atpg.Pattern, n)
		for i, in := range sp.s.Core.Inputs {
			sp.table[m][in] = logic.FromBool(m&(1<<i) != 0)
		}
	}
	out := make([]atpg.TwoPattern, 0, 1<<sp.bits)
	for m := 0; m < 1<<sp.bits; m++ {
		if tp, ok := sp.pair(func(i int) logic.Value { return logic.FromBool(m&(1<<i) != 0) }); ok {
			out = append(out, tp)
		}
	}
	return out
}

// EnumeratePairs enumerates every vector pair the application style can
// deliver to the combinational core, in free-bit order (V1 varies
// fastest). The total search space must stay within maxPairSpaceBits
// bits. Pairs share their pattern maps; treat them as read-only.
func EnumeratePairs(s *Circuit, style Style) ([]atpg.TwoPattern, error) {
	sp, err := newPairSpace(s, style)
	if err != nil {
		return nil, err
	}
	if sp.bits > maxPairSpaceBits {
		return nil, &SpaceLimitError{Mode: style, Bits: sp.bits, Limit: maxPairSpaceBits}
	}
	return sp.enumerate(), nil
}

// StyleCoverage grades every OBD fault of the core against the full pair
// space of one application style: the exhaustive search of
// GenerateTests, whatever the space's size up to maxPairSpaceBits.
func StyleCoverage(s *Circuit, style Style) (atpg.Coverage, error) {
	bits, err := styleBits(s, style)
	if err != nil {
		return atpg.Coverage{}, err
	}
	if bits > maxPairSpaceBits {
		return atpg.Coverage{}, &SpaceLimitError{Mode: style, Bits: bits, Limit: maxPairSpaceBits}
	}
	faults, _ := fault.OBDUniverse(s.Core)
	res, err := GenerateTests(s, faults, style, &Options{ExhaustiveMaxIn: maxPairSpaceBits})
	if err != nil {
		return atpg.Coverage{}, err
	}
	return res.Coverage, nil
}
