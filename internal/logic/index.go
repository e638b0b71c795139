package logic

// Index is a dense-ID, levelized view of a validated circuit, built once
// and cached on the Circuit. Every mutation path drops it: the Add*
// methods, and a Validate that finds an exported slice grown directly;
// re-validating an unchanged circuit keeps it. Once built it is read-only,
// so a validated circuit whose Index exists is safe to grade from
// concurrent goroutines (the first Validate and Index calls write the
// circuit and must not race). The
// map-of-string-keyed evaluators in logic.go are fine for the paper's
// ~25-gate examples, but event-driven fault grading over thousands of
// gates needs array indexing: every net gets a contiguous int ID, every
// gate its slice position, and the gates are bucketed by topological
// level so a simulator can sweep a changed-net frontier strictly
// level-ascending and touch each gate at most once.
type Index struct {
	// NetIDs maps a net name to its dense ID; NetNames is the inverse.
	// IDs are assigned primary inputs first (declaration order), then
	// gate outputs in Gates order.
	NetIDs   map[string]int
	NetNames []string

	// InputIDs and OutputIDs are the PI / PO nets in declaration order.
	OutputIDs []int32
	InputIDs  []int32

	// Gates is the gate list (same order as Circuit.Gates); GateIn,
	// GateOut and GateLevel are indexed by position in that slice.
	Gates     []*Gate
	GateIn    [][]int32
	GateOut   []int32
	GateLevel []int32

	// Fanouts maps a net ID to the positions of its consuming gates, in
	// ascending position order.
	Fanouts [][]int32

	// Levels buckets gate positions by topological level (Levels[0] is
	// empty: Validate assigns levels from 1). MaxLevel == len(Levels)-1.
	Levels   [][]int32
	MaxLevel int

	// IsPO marks net IDs that appear in Outputs.
	IsPO []bool

	pos map[*Gate]int
}

// Index returns the circuit's evaluation index, building and caching it
// on first use. Like Ordered it validates first and panics when
// validation fails.
func (c *Circuit) Index() *Index {
	c.mustValidate()
	if c.index != nil {
		return c.index
	}
	x := &Index{
		NetIDs: make(map[string]int, len(c.Inputs)+len(c.Gates)),
		pos:    make(map[*Gate]int, len(c.Gates)),
	}
	addNet := func(n string) int32 {
		if id, ok := x.NetIDs[n]; ok {
			return int32(id)
		}
		id := len(x.NetNames)
		x.NetIDs[n] = id
		x.NetNames = append(x.NetNames, n)
		return int32(id)
	}
	for _, in := range c.Inputs {
		x.InputIDs = append(x.InputIDs, addNet(in))
	}
	for _, g := range c.Gates {
		addNet(g.Output)
	}
	x.Gates = append([]*Gate(nil), c.Gates...)
	x.GateIn = make([][]int32, len(c.Gates))
	x.GateOut = make([]int32, len(c.Gates))
	x.GateLevel = make([]int32, len(c.Gates))
	x.Fanouts = make([][]int32, len(x.NetNames))
	for gi, g := range c.Gates {
		x.pos[g] = gi
		ins := make([]int32, len(g.Inputs))
		for k, in := range g.Inputs {
			id := addNet(in) // validated: always a PI or a gate output, so already present
			ins[k] = id
			x.Fanouts[id] = append(x.Fanouts[id], int32(gi))
		}
		x.GateIn[gi] = ins
		x.GateOut[gi] = int32(x.NetIDs[g.Output])
		x.GateLevel[gi] = int32(g.Level)
		if g.Level > x.MaxLevel {
			x.MaxLevel = g.Level
		}
	}
	x.Levels = make([][]int32, x.MaxLevel+1)
	for gi, g := range c.Gates {
		x.Levels[g.Level] = append(x.Levels[g.Level], int32(gi))
	}
	x.IsPO = make([]bool, len(x.NetNames))
	for _, po := range c.Outputs {
		id := addNet(po) // validated: a PI or driven, so already present
		x.OutputIDs = append(x.OutputIDs, id)
		x.IsPO[id] = true
	}
	return c.cacheIndex(x)
}

// cacheIndex stores the index; split out so Index stays readable.
func (c *Circuit) cacheIndex(x *Index) *Index {
	c.index = x
	return x
}

// NumNets returns the number of distinct nets (PIs plus gate outputs).
func (x *Index) NumNets() int { return len(x.NetNames) }

// FanoutCone returns the transitive fanout cone of a net as a dense
// mask over net IDs, including the net itself — the set of nets a value
// change at the root can influence. CNF encoders (netcheck's exact
// prover) use it to bound the faulty-copy duplication of a miter.
func (x *Index) FanoutCone(net int32) []bool {
	cone := make([]bool, x.NumNets())
	cone[net] = true
	stack := []int32{net}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, gi := range x.Fanouts[n] {
			out := x.GateOut[gi]
			if !cone[out] {
				cone[out] = true
				stack = append(stack, out)
			}
		}
	}
	return cone
}

// GatePos returns the slice position of g in Gates, or -1 when g is not a
// gate of the indexed circuit (fault lists sometimes carry synthetic
// gates that were never added to a circuit; callers must fall back to a
// full evaluation for those).
func (x *Index) GatePos(g *Gate) int {
	if p, ok := x.pos[g]; ok {
		return p
	}
	return -1
}
