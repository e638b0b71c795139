package main

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/logic"
)

// shape is a family of generated circuits with one committed member.
type shape struct {
	file     string // committed netlist, used on the default seed
	fileSeed int64  // generator seed the committed netlist was drawn at
	opt      logic.RandomOptions
	// readsAll keeps only circuits that read every primary input and
	// every state bit, the rule the committed s27-class circuit was
	// chosen by.
	readsAll bool
}

var (
	c432Shape = shape{file: "testdata/c432.bench", fileSeed: 432,
		opt: logic.RandomOptions{Inputs: 36, Gates: 160, Primitive: true}}
	s27Shape = shape{file: "testdata/s27.bench", fileSeed: 39,
		opt: logic.RandomOptions{Inputs: 4, Gates: 10, FFs: 3, Primitive: true}, readsAll: true}
	bigShape = logic.RandomOptions{Inputs: 64, Gates: 10000, Primitive: true}
)

// netlists returns the .bench texts of a pool of n circuits of the
// shape drawn from the seed. On the default seed the committed netlist
// is the pool's first member.
func (sh shape) netlists(root string, seed int64, n int) ([]string, error) {
	out := make([]string, 0, n)
	if seed == defaultSeed {
		b, err := os.ReadFile(filepath.Join(root, sh.file))
		if err != nil {
			return nil, err
		}
		out = append(out, string(b))
	}
	rng := rand.New(rand.NewSource(subSeed(seed, sh.file, 0)))
	for len(out) < n {
		c := logic.RandomCircuit(rand.New(rand.NewSource(rng.Int63())), sh.opt)
		if sh.readsAll && !readsAll(c) {
			continue
		}
		txt, err := logic.FormatBench(c)
		if err != nil {
			return nil, err
		}
		out = append(out, txt)
	}
	return out, nil
}

// readsAll reports whether every primary input and flip-flop output of c
// feeds some gate.
func readsAll(c *logic.Circuit) bool {
	for _, in := range c.Inputs {
		if len(c.Fanout(in)) == 0 {
			return false
		}
	}
	for _, ff := range c.DFFs() {
		if len(c.Fanout(ff.Output)) == 0 {
			return false
		}
	}
	return true
}

// checkCommitted verifies that the committed netlist is the generator's
// output at its recorded seed.
func (sh shape) checkCommitted(root string, rep *report) {
	c, err := logic.ParseFile(filepath.Join(root, sh.file))
	if err != nil {
		rep.fail("%s: %v", sh.file, err)
		return
	}
	want, err1 := logic.RandomCircuit(rand.New(rand.NewSource(sh.fileSeed)), sh.opt).Fingerprint()
	got, err2 := c.Fingerprint()
	if err1 != nil || err2 != nil || got != want {
		rep.fail("%s is not the generator output at seed %d", sh.file, sh.fileSeed)
	}
}

// subSeed derives an independent seed for the i-th item of a stream.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64() >> 1)
}

// randomPairs draws n complete two-pattern tests over inputs.
func randomPairs(rng *rand.Rand, inputs []string, n int) []atpg.TwoPattern {
	out := make([]atpg.TwoPattern, n)
	for i := range out {
		v1 := make(atpg.Pattern, len(inputs))
		v2 := make(atpg.Pattern, len(inputs))
		for _, in := range inputs {
			v1[in] = logic.FromBool(rng.Intn(2) == 1)
			v2[in] = logic.FromBool(rng.Intn(2) == 1)
		}
		out[i] = atpg.TwoPattern{V1: v1, V2: v2}
	}
	return out
}

// coverageDigest hashes a Coverage, including the order of Undetected.
func coverageDigest(cov atpg.Coverage) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%d %d\n%s", cov.Total, cov.Detected, strings.Join(cov.Undetected, "\n"))))
}

// pairKeys renders test pairs over c's input order, for digests.
func pairKeys(c *logic.Circuit, tests []atpg.TwoPattern) string {
	var b strings.Builder
	for _, tp := range tests {
		b.WriteString(tp.StringFor(c))
	}
	return b.String()
}
