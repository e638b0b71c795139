package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
)

// grade-big: one op is Scheduler.GradeOBD at nproc workers over the full
// OBD universe of one generated 10,000-gate circuit, with a fresh set of
// 256 complete pairs drawn from the workload seed. The circuit is the
// generator's output at bigCircuitSeed on every workload seed (35,972
// faults), so runs on different seeds grade the same design; its .bench
// text is made and parsed once in set-up.

const (
	bigCircuitSeed = 1
	bigPairs       = 256
	bigWarmup      = 2
	scalarProbe    = 4 // faults per op the scalar DetectsOBD oracle samples
)

type gradeBig struct {
	cfg    config
	c      *logic.Circuit
	faults []fault.OBD
	sched  *atpg.Scheduler
}

// gradeRec is what an untraced op leaves for the oracle: the op index
// (its pairs are regenerated from it) and the digest of its Coverage.
type gradeRec struct {
	op       int
	digest   [32]byte
	detected int
	total    int
	err      error
}

func setupGradeBig(cfg config, tr *tracer) (*gradeBig, error) {
	root := tr.begin(-1, -1, setupSpan)
	defer tr.end(root)
	var txt string
	var err error
	tr.call(root, -1, "logic.generate", func() {
		txt, err = logic.FormatBench(logic.RandomCircuit(rand.New(rand.NewSource(bigCircuitSeed)), bigShape))
	})
	if err != nil {
		return nil, err
	}
	w := &gradeBig{cfg: cfg, sched: atpg.NewScheduler(cfg.workers)}
	tr.call(root, -1, "logic.parse", func() { w.c, err = logic.ParseBench(strings.NewReader(txt)) })
	if err != nil {
		return nil, err
	}
	tr.call(root, -1, "logic.index", func() {
		if err = w.c.Validate(); err == nil {
			w.c.Index()
		}
	})
	if err != nil {
		return nil, err
	}
	tr.call(root, -1, "fault.universe", func() { w.faults, _ = fault.OBDUniverse(w.c) })
	return w, nil
}

// pairs returns op i's test set.
func (w *gradeBig) pairs(i int) []atpg.TwoPattern {
	return randomPairs(rand.New(rand.NewSource(subSeed(w.cfg.seed, "grade-big/pairs", i))), w.c.Inputs, bigPairs)
}

// op runs one timed grade.
func (w *gradeBig) op(i int) (time.Duration, gradeRec) {
	pairs := w.pairs(i)
	start := time.Now()
	cov, err := w.sched.GradeOBD(w.c, w.faults, pairs)
	d := time.Since(start)
	return d, gradeRec{op: i, digest: coverageDigest(cov), detected: cov.Detected, total: cov.Total, err: err}
}

// reference grades every fault on its own through one PairGrader, with
// no collapsing, and returns the Coverage and each fault's first
// detecting pair (-1 when undetected).
func reference(c *logic.Circuit, faults []fault.OBD, pairs []atpg.TwoPattern) (atpg.Coverage, []int) {
	pg := atpg.NewPairGrader(c, pairs)
	first := make([]int, len(faults))
	cov := atpg.Coverage{Total: len(faults)}
	for k, f := range faults {
		first[k] = pg.FirstDetecting(f)
		if first[k] >= 0 {
			cov.Detected++
		} else {
			cov.Undetected = append(cov.Undetected, f.String())
		}
	}
	return cov, first
}

// check is the grade-big oracle. The Coverage must equal the uncollapsed
// per-fault reference, Undetected order included, and a seeded sample of
// faults must get the same verdict from the scalar atpg.DetectsOBD: true
// at the reference's first detecting pair, false on two sampled pairs
// for an undetected fault.
func (w *gradeBig) check(rec gradeRec) error {
	if rec.err != nil {
		return rec.err
	}
	pairs := w.pairs(rec.op)
	ref, first := reference(w.c, w.faults, pairs)
	if coverageDigest(ref) != rec.digest {
		return fmt.Errorf("op %d: coverage %d/%d differs from the uncollapsed reference %s", rec.op, rec.detected, rec.total, ref)
	}
	rng := rand.New(rand.NewSource(subSeed(w.cfg.seed, "grade-big/scalar", rec.op)))
	for s := 0; s < scalarProbe; s++ {
		k := rng.Intn(len(w.faults))
		f := w.faults[k]
		if first[k] >= 0 {
			if !atpg.DetectsOBD(w.c, f, pairs[first[k]]) {
				return fmt.Errorf("op %d: scalar DetectsOBD misses %s at pair %d", rec.op, f, first[k])
			}
			continue
		}
		for t := 0; t < 2; t++ {
			if p := rng.Intn(len(pairs)); atpg.DetectsOBD(w.c, f, pairs[p]) {
				return fmt.Errorf("op %d: scalar DetectsOBD detects %s at pair %d, the grade says undetected", rec.op, f, p)
			}
		}
	}
	return nil
}

func runGradeBig(cfg config) (*report, error) {
	rep := newReport()
	w, err := setupReps(rep, 9, func() (*gradeBig, error) { return setupGradeBig(cfg, nil) }, nil)
	if err != nil {
		return nil, err
	}
	m := rep.metrics
	rep.record["faults"] = len(w.faults)
	rep.record["gates"] = len(w.c.Gates)
	rep.record["warmup_ops"] = bigWarmup
	for k := 1; k <= bigWarmup; k++ {
		if _, rec := w.op(-k); rec.err != nil {
			return nil, fmt.Errorf("warm-up op: %w", rec.err)
		} else if err := w.check(rec); err != nil {
			rep.fail("warm-up op %d: %v", -k, err)
		}
	}
	if cfg.trace {
		return w.traced(rep)
	}
	var recs []gradeRec
	steal := readSteal()
	rss := sampleRSS()
	lat, failed := window(cfg, 1, func(i int) (time.Duration, error) {
		d, rec := w.op(i)
		recs = append(recs, rec)
		return d, rec.err
	})
	m["max_rss_mib"] = rss.median()
	rep.record["steal_share"] = stealShare(steal)
	latencyMetrics(rep, lat, sum(lat), len(recs))
	rep.attempted, rep.failed = len(recs), failed
	errs := make([]error, len(recs))
	w.c.Index() // cached before the parallel checks read it
	parallel(len(recs), cfg.workers, func(i int) {
		if recs[i].err == nil {
			errs[i] = w.check(recs[i])
		}
	})
	var cover float64
	for i, rec := range recs {
		if rec.err != nil {
			continue
		}
		if errs[i] != nil {
			rep.failed++
			rep.fail("%v", errs[i])
		}
		cover += 100 * float64(rec.detected) / float64(rec.total)
	}
	if len(lat) == 0 {
		return nil, errors.New("no op succeeded")
	}
	m["coverage_pct"] = cover / float64(len(lat))
	m["test_count"] = bigPairs
	return rep, nil
}

// traced alternates an untraced GradeOBD (timed, with worker stats and
// an allocation count) with the same grade done as a chain of public
// calls, one span each: CollapseOBDComplete, NewPairGrader, and
// FirstDetecting per class representative sharded over nproc
// goroutines. Both must give the same Coverage.
func (w *gradeBig) traced(rep *report) (*report, error) {
	cfg := w.cfg
	tr := newTracer()
	if _, err := setupGradeBig(cfg, tr); err != nil {
		return nil, err
	}
	m := rep.metrics
	var untraced []time.Duration
	var busy, allocs, sims, ratio float64
	cfg.minOps = 10
	_, failed := window(cfg, 1, func(i int) (time.Duration, error) {
		pairs := w.pairs(i)
		sched := atpg.NewScheduler(cfg.workers)
		sched.CollectStats = true
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		want, err := sched.GradeOBD(w.c, w.faults, pairs)
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return d, err
		}
		untraced = append(untraced, d)
		allocs += float64(after.Mallocs - before.Mallocs)
		var wantSims int64
		for _, ws := range sched.Stats() {
			busy += ws.Busy.Seconds() / (float64(cfg.workers) * d.Seconds())
			wantSims += ws.Pairs
		}
		td := time.Now()
		root := tr.begin(-1, i, rootSpan)
		got, gotSims, classes := shardedGrade(tr, root, i, cfg.workers, w.c, w.faults, pairs)
		tr.end(root)
		sims += float64(gotSims)
		ratio += float64(classes) / float64(len(w.faults))
		switch {
		case coverageDigest(got) != coverageDigest(want):
			return d + time.Since(td), fmt.Errorf("op %d: traced chain coverage %s differs from GradeOBD %s", i, got, want)
		case gotSims != wantSims:
			return d + time.Since(td), fmt.Errorf("op %d: traced chain ran %d pair simulations, GradeOBD %d", i, gotSims, wantSims)
		}
		return d + time.Since(td), nil
	})
	ops := float64(len(untraced))
	if ops == 0 {
		return nil, errors.New("no traced op succeeded")
	}
	rep.attempted = len(tr.durations(rootSpan))
	rep.failed = failed
	m["fault.faults"] = float64(len(w.faults))
	m["atpg.busy_ratio"] = busy / ops
	m["atpg.allocs_per_grade"] = allocs / ops
	m["atpg.pair_sims"] = sims / ops
	m["netcheck.collapse_ratio"] = ratio / ops
	overhead(m, tr.durations(rootSpan), untraced)
	if err := finishTrace(cfg, "grade-big", tr, m, rep); err != nil {
		return nil, err
	}
	m["atpg.grade_gap_ms"] = ms(sum(untraced))/ops - (m["netcheck.collapse_ms"] + m["atpg.grader_build_ms"] + m["atpg.propagate_ms"])
	return rep, nil
}

// shardedGrade records CollapseOBDComplete, NewPairGrader and the
// sharded FirstDetecting calls as children of parent, then fans the
// class verdicts back out to a Coverage (untraced: that is the parent's
// own time).
func shardedGrade(tr *tracer, parent, op, workers int, c *logic.Circuit, faults []fault.OBD, pairs []atpg.TwoPattern) (atpg.Coverage, int64, int) {
	var classes [][]int
	tr.call(parent, op, "netcheck.collapse", func() { classes = netcheck.CollapseOBDComplete(c, faults) })
	var pg *atpg.PairGrader
	tr.call(parent, op, "atpg.grader_build", func() { pg = atpg.NewPairGrader(c, pairs) })
	hit := make([]bool, len(classes))
	var sims atomic.Int64
	prop := tr.begin(parent, op, "atpg.propagate")
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			id := tr.begin(prop, op, "atpg.propagate_shard")
			var n int64
			for ci := wk; ci < len(classes); ci += workers {
				idx := pg.FirstDetecting(faults[classes[ci][0]])
				hit[ci] = idx >= 0
				if hit[ci] {
					n += int64(idx + 1)
				} else {
					n += int64(len(pairs))
				}
			}
			sims.Add(n)
			tr.endConcurrent(id)
		}(wk)
	}
	wg.Wait()
	tr.end(prop)
	det := make([]bool, len(faults))
	for ci, cl := range classes {
		for _, fi := range cl {
			det[fi] = hit[ci]
		}
	}
	cov := atpg.Coverage{Total: len(faults)}
	for fi, d := range det {
		if d {
			cov.Detected++
		} else {
			cov.Undetected = append(cov.Undetected, faults[fi].String())
		}
	}
	return cov, sims.Load(), len(classes)
}
