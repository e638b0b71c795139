package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"time"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
)

// atpg-signoff: one op is Scheduler.GenerateOBDTests at nproc workers
// with DefaultOptions plus SATFallback on a c432-shape circuit, then
// netcheck.ProveOBDExactList over every fault it left undetected. Ops
// cycle through a pool of signoffPool c432-shape circuits drawn from the
// seed, so runs on different seeds measure comparable work; on the
// default seed testdata/c432.bench is the pool's first member.

const signoffPool = 16

// The census of the committed c432 circuit on the default seed.
const (
	c432Tests      = 194
	c432Detected   = 567
	c432Faults     = 584
	c432Untestable = 17
)

// member is one circuit of a pool with its fault universe.
type member struct {
	c      *logic.Circuit
	faults []fault.OBD
}

type atpgSignoff struct {
	cfg   config
	pool  []member
	sched *atpg.Scheduler
}

// signoffOut is one op's output.
type signoffOut struct {
	member   int
	ts       *atpg.TestSet
	left     []fault.OBD
	verdicts []netcheck.ExactVerdict
	sat      atpg.SATStats
}

// digest hashes everything the op returned.
func (o *signoffOut) digest(c *logic.Circuit) [32]byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%s|", o.member, pairKeys(c, o.ts.Tests))
	for _, r := range o.ts.Results {
		fmt.Fprintf(&b, "%s=%d,", r.Fault, r.Status)
	}
	cd := coverageDigest(o.ts.Coverage)
	b.Write(cd[:])
	for _, v := range o.verdicts {
		fmt.Fprintf(&b, "|%s %t %t", v.Fault, v.Testable, v.Aborted)
	}
	fmt.Fprintf(&b, "|%+v", o.sat)
	return sha256.Sum256([]byte(b.String()))
}

// setupPool parses a pool's netlists and builds their fault universes.
func setupPool(tr *tracer, texts []string) ([]member, error) {
	root := tr.begin(-1, -1, setupSpan)
	defer tr.end(root)
	pool := make([]member, len(texts))
	for k, txt := range texts {
		var err error
		tr.call(root, -1, "logic.parse", func() { pool[k].c, err = logic.ParseBenchString(txt) })
		if err != nil {
			return nil, err
		}
		tr.call(root, -1, "logic.index", func() {
			if err = pool[k].c.Validate(); err == nil {
				pool[k].c.Index()
			}
		})
		if err != nil {
			return nil, err
		}
		tr.call(root, -1, "fault.universe", func() { pool[k].faults, _ = fault.OBDUniverse(pool[k].c) })
	}
	return pool, nil
}

func setupATPGSignoff(cfg config, tr *tracer) (*atpgSignoff, error) {
	texts, err := c432Shape.netlists(cfg.root, cfg.seed, cfg.poolSize(signoffPool))
	if err != nil {
		return nil, err
	}
	pool, err := setupPool(tr, texts)
	if err != nil {
		return nil, err
	}
	return &atpgSignoff{cfg: cfg, pool: pool, sched: atpg.NewScheduler(cfg.workers)}, nil
}

// op runs one timed generation plus exact sign-off on pool member k.
func (w *atpgSignoff) op(k int) (time.Duration, *signoffOut, error) {
	m := w.pool[k]
	out := &signoffOut{member: k}
	opt := atpg.DefaultOptions()
	opt.SATFallback = true
	opt.SATStats = &out.sat
	start := time.Now()
	ts, err := w.sched.GenerateOBDTests(m.c, m.faults, opt)
	if err != nil {
		return time.Since(start), nil, err
	}
	for i, r := range ts.Results {
		if r.Status != atpg.Detected {
			out.left = append(out.left, m.faults[i])
		}
	}
	out.verdicts = netcheck.ProveOBDExactList(m.c, out.left, netcheck.DefaultExactBudget)
	d := time.Since(start)
	out.ts = ts
	return d, out, nil
}

// check is the atpg-signoff oracle: a GradeOBD regrade of the returned
// tests reproduces the reported Coverage, the results agree with the
// tests, no fault stays Aborted, and every leftover fault has an
// untestable verdict that netcheck.VerifyExactVerdict accepts.
func (w *atpgSignoff) check(o *signoffOut) error {
	m := w.pool[o.member]
	ts := o.ts
	regrade, err := atpg.NewScheduler(w.cfg.workers).GradeOBD(m.c, m.faults, ts.Tests)
	if err != nil {
		return err
	}
	if coverageDigest(regrade) != coverageDigest(ts.Coverage) {
		return fmt.Errorf("member %d: regrade %s differs from the reported coverage %s", o.member, regrade, ts.Coverage)
	}
	if len(ts.Results) != len(m.faults) {
		return fmt.Errorf("member %d: %d results for %d faults", o.member, len(ts.Results), len(m.faults))
	}
	var withTest []atpg.TwoPattern
	detected := 0
	for i, r := range ts.Results {
		switch r.Status {
		case atpg.Detected:
			detected++
			if r.Test != nil {
				withTest = append(withTest, *r.Test)
			}
		case atpg.Aborted, atpg.Errored:
			return fmt.Errorf("member %d: fault %s left %s", o.member, m.faults[i], r.Status)
		}
	}
	if pairKeys(m.c, withTest) != pairKeys(m.c, ts.Tests) {
		return fmt.Errorf("member %d: the per-fault tests do not match the test list", o.member)
	}
	if detected != ts.Coverage.Detected || detected+len(o.left) != len(m.faults) {
		return fmt.Errorf("member %d: %d detected results, %d left, coverage %s", o.member, detected, len(o.left), ts.Coverage)
	}
	if len(o.verdicts) != len(o.left) {
		return fmt.Errorf("member %d: %d exact verdicts for %d leftover faults", o.member, len(o.verdicts), len(o.left))
	}
	for i, v := range o.verdicts {
		if v.Testable || v.Aborted {
			return fmt.Errorf("member %d: leftover fault %s is not proven untestable (testable=%t aborted=%t)", o.member, o.left[i], v.Testable, v.Aborted)
		}
		if err := netcheck.VerifyExactVerdict(m.c, o.left[i], v); err != nil {
			return fmt.Errorf("member %d: %w", o.member, err)
		}
	}
	if w.cfg.seed == defaultSeed && o.member == 0 && (len(ts.Tests) != c432Tests || ts.Coverage.Detected != c432Detected ||
		ts.Coverage.Total != c432Faults || len(o.left) != c432Untestable) {
		return fmt.Errorf("c432 census: %d tests, %s, %d proven untestable; want %d tests, %d/%d, %d",
			len(ts.Tests), ts.Coverage, len(o.left), c432Tests, c432Detected, c432Faults, c432Untestable)
	}
	return nil
}

func runATPGSignoff(cfg config) (*report, error) {
	rep := newReport()
	w, err := setupReps(rep, 9, func() (*atpgSignoff, error) { return setupATPGSignoff(cfg, nil) }, nil)
	if err != nil {
		return nil, err
	}
	m := rep.metrics
	rep.record["pool"] = len(w.pool)
	if cfg.seed == defaultSeed {
		c432Shape.checkCommitted(cfg.root, rep)
	}
	// The warm-up is one pass over the pool with every output checked in
	// full. The ops are deterministic, so a timed op passes when its
	// output is the checked one; no output is kept, and the memory the
	// run measures is the library's.
	verified := make([][32]byte, len(w.pool))
	for k := range w.pool {
		_, o, err := w.op(k)
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		if err := w.check(o); err != nil {
			rep.fail("warm-up op: %v", err)
			continue // verified[k] stays zero: every op on member k fails
		}
		verified[k] = o.digest(w.pool[k].c)
	}
	rep.record["warmup_ops"] = len(w.pool)
	if cfg.trace {
		return w.traced(rep)
	}
	var tests, cover float64
	attempted := 0
	steal := readSteal()
	rss := sampleRSS()
	lat, failed := window(cfg, len(w.pool), func(i int) (time.Duration, error) {
		attempted++
		k := i % len(w.pool)
		d, o, err := w.op(k)
		if err != nil {
			return d, err
		}
		if o.digest(w.pool[k].c) != verified[k] {
			return d, fmt.Errorf("member %d: the output differs from the checked warm-up output", k)
		}
		tests += float64(len(o.ts.Tests))
		cover += 100 * o.ts.Coverage.Ratio()
		return d, nil
	})
	m["max_rss_mib"] = rss.median()
	rep.record["steal_share"] = stealShare(steal)
	latencyMetrics(rep, lat, sum(lat), attempted)
	rep.attempted, rep.failed = attempted, failed
	if len(lat) == 0 {
		return nil, errors.New("no op succeeded")
	}
	ok := float64(len(lat))
	m["test_count"] = tests / ok
	m["coverage_pct"] = cover / ok
	return rep, nil
}

// traced alternates the untraced op with its replay as the sequential
// commit loop at one worker, one span per public call:
// GenerateOBDTest with the SAT fallback on (its SATStats counted), a
// one-pair NewPairGrader plus Detects for fault dropping, the closing
// GradeOBD, and ProveOBDExactList over the leftover faults. The replay
// must reproduce the untraced output.
func (w *atpgSignoff) traced(rep *report) (*report, error) {
	cfg := w.cfg
	tr := newTracer()
	if _, err := setupATPGSignoff(cfg, tr); err != nil {
		return nil, err
	}
	m := rep.metrics
	var untraced []time.Duration
	var n replayCounts
	cfg.minOps = 10
	_, failed := window(cfg, 1, func(i int) (time.Duration, error) {
		k := i % len(w.pool)
		d, want, err := w.op(k)
		if err != nil {
			return d, err
		}
		untraced = append(untraced, d)
		td := time.Now()
		got := w.replay(tr, i, k, &n)
		if got.digest(w.pool[k].c) != want.digest(w.pool[k].c) {
			return d + time.Since(td), fmt.Errorf("op %d: the traced replay gave %d tests %s, the scheduler %d tests %s",
				i, len(got.ts.Tests), got.ts.Coverage, len(want.ts.Tests), want.ts.Coverage)
		}
		return d + time.Since(td), nil
	})
	ops := float64(len(untraced))
	if ops == 0 {
		return nil, errors.New("no traced op succeeded")
	}
	rep.attempted = len(tr.durations(rootSpan))
	rep.failed = failed
	faults := 0
	for _, mem := range w.pool {
		faults += len(mem.faults)
	}
	m["fault.faults"] = float64(faults) / float64(len(w.pool))
	m["atpg.podem_calls"] = float64(n.podem) / ops
	m["atpg.backtracks"] = float64(n.backtracks) / ops
	m["atpg.drop_checks"] = float64(n.drops) / ops
	m["netcheck.proofs"] = float64(n.proofs) / ops
	m["sat.aborts"] = float64(n.sat.Aborts) / ops
	m["sat.detected"] = float64(n.sat.Detected) / ops
	m["sat.untestable"] = float64(n.sat.Untestable) / ops
	m["sat.undecided"] = float64(n.sat.Undecided) / ops
	overhead(m, tr.durations(rootSpan), untraced)
	return rep, finishTrace(cfg, "atpg-signoff", tr, m, rep)
}

// replayCounts accumulates the counters of the traced replays.
type replayCounts struct {
	podem, backtracks, drops, proofs int
	sat                              atpg.SATStats
}

// replay redoes op i on member k as the sequential commit loop, one span
// per public call.
func (w *atpgSignoff) replay(tr *tracer, op, k int, n *replayCounts) *signoffOut {
	m := w.pool[k]
	root := tr.begin(-1, op, rootSpan)
	defer tr.end(root)
	out := &signoffOut{member: k, ts: &atpg.TestSet{}}
	opt := atpg.DefaultOptions()
	opt.SATFallback = true
	opt.SATStats = &out.sat
	backtracks := 0
	opt.BacktrackSink = &backtracks
	covered := make([]bool, len(m.faults))
	for i, f := range m.faults {
		if covered[i] {
			out.ts.Results = append(out.ts.Results, atpg.Result{Fault: f.String(), Status: atpg.Detected})
			continue
		}
		var tp *atpg.TwoPattern
		var st atpg.Status
		tr.call(root, op, "atpg.podem", func() { tp, st = atpg.GenerateOBDTest(m.c, f, opt) })
		n.podem++
		res := atpg.Result{Fault: f.String(), Status: st}
		if st == atpg.Detected {
			res.Test = tp
			out.ts.Tests = append(out.ts.Tests, *tp)
			tr.call(root, op, "atpg.drop", func() {
				pg := atpg.NewPairGrader(m.c, []atpg.TwoPattern{*tp})
				for j := i; j < len(m.faults); j++ {
					if !covered[j] {
						n.drops++
						covered[j] = pg.Detects(m.faults[j])
					}
				}
			})
		}
		out.ts.Results = append(out.ts.Results, res)
	}
	tr.call(root, op, "atpg.grade", func() {
		out.ts.Coverage, _ = atpg.NewScheduler(1).GradeOBD(m.c, m.faults, out.ts.Tests)
	})
	for i, r := range out.ts.Results {
		if r.Status != atpg.Detected {
			out.left = append(out.left, m.faults[i])
		}
	}
	tr.call(root, op, "netcheck.exact", func() {
		out.verdicts = netcheck.ProveOBDExactList(m.c, out.left, netcheck.DefaultExactBudget)
	})
	n.backtracks += backtracks
	n.proofs += len(out.verdicts)
	n.sat.Aborts += out.sat.Aborts
	n.sat.Detected += out.sat.Detected
	n.sat.Untestable += out.sat.Untestable
	n.sat.Undecided += out.sat.Undecided
	return out
}
