package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/seq"
)

// scan-styles: one op is seq.GenerateTestsOn at nproc workers over the
// full core OBD universe of an s27-shape sequential circuit, in one scan
// style; each circuit runs enhanced, LOS and LOC back to back. The
// circuits are a fixed family of scanPool s27-shape circuits, the
// default seed's pool with testdata/s27.bench first, on every seed: a
// 10-gate circuit's ATPG time varies several-fold from one draw to the
// next, so per-seed circuits would make runs on different seeds
// incomparable. The seed orders the circuits.

const scanPool = 34

var styles = []seq.Style{seq.Enhanced, seq.LOS, seq.LOC}

// The census of the committed s27 circuit per style.
var s27Census = []int{26, 25, 20}

const s27Faults = 40

// spanNames are the trace span names of the styles.
var styleSpans = []string{"seq.enhanced", "seq.los", "seq.loc"}

type scanMember struct {
	s      *seq.Circuit
	faults []fault.OBD
}

type scanStyles struct {
	cfg   config
	pool  []scanMember
	order []int // the seeded order the ops visit the members in
	sched *atpg.Scheduler
}

// scanOut is one op's output.
type scanOut struct {
	member, style int
	res           *seq.Result
}

func (o *scanOut) digest(c *logic.Circuit) [32]byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d|%t|%s|", o.member, o.style, o.res.Exact, pairKeys(c, o.res.Tests))
	for _, st := range o.res.Statuses {
		fmt.Fprintf(&b, "%d", st)
	}
	cd := coverageDigest(o.res.Coverage)
	b.Write(cd[:])
	return sha256.Sum256([]byte(b.String()))
}

func setupScanStyles(cfg config, tr *tracer) (*scanStyles, error) {
	root := tr.begin(-1, -1, setupSpan)
	defer tr.end(root)
	texts, err := s27Shape.netlists(cfg.root, defaultSeed, cfg.poolSize(scanPool))
	if err != nil {
		return nil, err
	}
	w := &scanStyles{cfg: cfg, pool: make([]scanMember, len(texts)), sched: atpg.NewScheduler(cfg.workers),
		order: rand.New(rand.NewSource(subSeed(cfg.seed, "scan-styles/order", 0))).Perm(len(texts))}
	for k, txt := range texts {
		var c *logic.Circuit
		tr.call(root, -1, "logic.parse", func() { c, err = logic.ParseBenchString(txt) })
		if err != nil {
			return nil, err
		}
		tr.call(root, -1, "seq.from_circuit", func() { w.pool[k].s, err = seq.FromCircuit(c) })
		if err != nil {
			return nil, err
		}
		tr.call(root, -1, "fault.universe", func() { w.pool[k].faults, _ = fault.OBDUniverse(w.pool[k].s.Core) })
	}
	return w, nil
}

// op runs style st on member k.
func (w *scanStyles) op(sched *atpg.Scheduler, k, st int) (time.Duration, *scanOut, error) {
	m := w.pool[k]
	start := time.Now()
	res, err := seq.GenerateTestsOn(sched, m.s, m.faults, styles[st], nil)
	return time.Since(start), &scanOut{member: k, style: st, res: res}, err
}

// opAt maps op index i to its (member, style): every member runs its
// three styles back to back.
func (w *scanStyles) opAt(i int) (k, st int) {
	return w.order[(i/len(styles))%len(w.pool)], i % len(styles)
}

// check is the per-output scan-styles oracle: the search is exact, the
// coverage agrees with the statuses, and each test re-detects its fault
// on the combinational core under atpg.PairGrader.
func (w *scanStyles) check(o *scanOut) error {
	m := w.pool[o.member]
	r := o.res
	if !r.Exact {
		return fmt.Errorf("member %d %s: search is not exact", o.member, styles[o.style])
	}
	if len(r.Statuses) != len(m.faults) || r.Coverage.Total != len(m.faults) {
		return fmt.Errorf("member %d %s: %d statuses, coverage %s, for %d faults", o.member, styles[o.style], len(r.Statuses), r.Coverage, len(m.faults))
	}
	next := 0
	for i, st := range r.Statuses {
		switch st {
		case atpg.Detected:
			if next >= len(r.Tests) {
				return fmt.Errorf("member %d %s: fewer tests than detected faults", o.member, styles[o.style])
			}
			if !atpg.NewPairGrader(m.s.Core, r.Tests[next:next+1]).Detects(m.faults[i]) {
				return fmt.Errorf("member %d %s: test %d does not detect %s on the core", o.member, styles[o.style], next, m.faults[i])
			}
			next++
		case atpg.Untestable:
		default:
			return fmt.Errorf("member %d %s: fault %s left %s", o.member, styles[o.style], m.faults[i], st)
		}
	}
	if next != len(r.Tests) || next != r.Coverage.Detected {
		return fmt.Errorf("member %d %s: %d detected faults, %d tests, coverage %s", o.member, styles[o.style], next, len(r.Tests), r.Coverage)
	}
	return nil
}

// checkMembers checks each member's three style results against an
// exhaustive oracle: every style's pair space is enumerated with
// seq.EnumeratePairs and graded with one PairGrader, so a fault's
// verdict must be Detected exactly when some pair of the space detects
// it, and each test must be a pair of its style's space. Per fault,
// enhanced ⊇ LOS and enhanced ⊇ LOC (both spaces are enhanced-scan
// pairs). The committed s27 circuit, member 0, must also hold its
// pinned census and LOS ⊇ LOC; that containment is not a property of
// the styles in general (a LOS launch state is a shift of the first
// state, a LOC one its next state), and other members break it. It
// returns the number of failed ops.
func (w *scanStyles) checkMembers(v *verifier[*scanOut], rep *report) int {
	failed := 0
	for k, m := range w.pool {
		var res [3]*seq.Result
		for st := range styles {
			d, ok := v.first[k*len(styles)+st]
			if !ok {
				rep.fail("member %d: style %s never ran", k, styles[st])
				return failed + 1
			}
			res[st] = v.outputs[d].res
			if err := w.exhaustive(k, st, res[st]); err != nil {
				rep.fail("%v", err)
				failed += v.ops[d]
			}
		}
		committed := k == 0
		for i, f := range m.faults {
			for st := 1; st < len(styles); st++ {
				if res[st].Statuses[i] == atpg.Detected && res[0].Statuses[i] != atpg.Detected {
					rep.fail("member %d: %s detects %s, enhanced scan does not", k, styles[st], f)
					failed++
				}
			}
			if committed && res[2].Statuses[i] == atpg.Detected && res[1].Statuses[i] != atpg.Detected {
				rep.fail("s27: launch-on-capture detects %s, launch-on-shift does not", f)
				failed++
			}
		}
		if committed {
			for st, want := range s27Census {
				if res[st].Coverage.Detected != want || res[st].Coverage.Total != s27Faults {
					rep.fail("s27 census: %s %s, want %d/%d", styles[st], res[st].Coverage, want, s27Faults)
					failed++
				}
			}
		}
	}
	return failed
}

// exhaustive decides every fault of member k in style st by grading the
// style's whole pair space, and compares with the generator's result.
func (w *scanStyles) exhaustive(k, st int, r *seq.Result) error {
	m := w.pool[k]
	space, err := seq.EnumeratePairs(m.s, styles[st])
	if err != nil {
		return fmt.Errorf("member %d %s: enumerating the pair space: %w", k, styles[st], err)
	}
	inSpace := make(map[string]bool, len(space))
	for _, tp := range space {
		inSpace[tp.StringFor(m.s.Core)] = true
	}
	for _, tp := range r.Tests {
		if !inSpace[tp.StringFor(m.s.Core)] {
			return fmt.Errorf("member %d %s: test %s is not a pair of the style", k, styles[st], tp.StringFor(m.s.Core))
		}
	}
	pg := atpg.NewPairGrader(m.s.Core, space)
	for i, f := range m.faults {
		if detectable := pg.FirstDetecting(f) >= 0; detectable != (r.Statuses[i] == atpg.Detected) {
			return fmt.Errorf("member %d %s: %s is %s, the exhaustive grade says detectable=%t", k, styles[st], f, r.Statuses[i], detectable)
		}
	}
	return nil
}

// verifier checks each distinct output of a deterministic op once: an
// op whose output digest matches an output already checked shares its
// verdict, and an op whose output differs from its input's first output
// breaks the determinism contract.
type verifier[O any] struct {
	first   map[int][32]byte // input key -> digest of its first output
	outputs map[[32]byte]O   // digest -> the output to check
	ops     map[[32]byte]int // digest -> ops that returned it
	bad     map[int]int      // input key -> ops that returned another output
}

func newVerifier[O any]() *verifier[O] {
	return &verifier[O]{first: map[int][32]byte{}, outputs: map[[32]byte]O{}, ops: map[[32]byte]int{}, bad: map[int]int{}}
}

// add files one op's output under its input key.
func (v *verifier[O]) add(key int, d [32]byte, o O) {
	if f, ok := v.first[key]; ok && f != d {
		v.bad[key]++
		return
	}
	v.first[key] = d
	if _, ok := v.outputs[d]; !ok {
		v.outputs[d] = o
	}
	v.ops[d]++
}

// checkAll runs check on every distinct output and returns how many ops
// failed, recording each failure on rep.
func (v *verifier[O]) checkAll(rep *report, check func(O) error) int {
	failed := 0
	for d, o := range v.outputs {
		if err := check(o); err != nil {
			failed += v.ops[d]
			rep.fail("%v", err)
		}
	}
	for key, n := range v.bad {
		failed += n
		rep.fail("input %d gave %d outputs that differ from its first one", key, n)
	}
	return failed
}

func runScanStyles(cfg config) (*report, error) {
	rep := newReport()
	w, err := setupReps(rep, 9, func() (*scanStyles, error) { return setupScanStyles(cfg, nil) }, nil)
	if err != nil {
		return nil, err
	}
	m := rep.metrics
	rep.record["pool"] = len(w.pool)
	for st := range styles {
		_, o, err := w.op(w.sched, w.order[0], st)
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		if err := w.check(o); err != nil {
			rep.fail("warm-up op: %v", err)
		}
	}
	rep.record["warmup_ops"] = len(styles)
	s27Shape.checkCommitted(cfg.root, rep)
	if cfg.trace {
		return w.traced(rep)
	}
	v := newVerifier[*scanOut]()
	var tests, cover float64
	attempted := 0
	steal := readSteal()
	rss := sampleRSS()
	lat, failed := window(cfg, len(styles)*len(w.pool), func(i int) (time.Duration, error) {
		attempted++
		k, st := w.opAt(i)
		d, o, err := w.op(w.sched, k, st)
		if err != nil {
			return d, err
		}
		v.add(k*len(styles)+st, o.digest(w.pool[k].s.Core), o)
		tests += float64(len(o.res.Tests))
		cover += 100 * o.res.Coverage.Ratio()
		return d, nil
	})
	m["max_rss_mib"] = rss.median()
	rep.record["steal_share"] = stealShare(steal)
	latencyMetrics(rep, lat, sum(lat), attempted)
	rep.attempted = attempted
	rep.failed = min(attempted, failed+v.checkAll(rep, w.check)+w.checkMembers(v, rep))
	if len(lat) == 0 {
		return nil, errors.New("no op succeeded")
	}
	ok := float64(len(lat))
	m["test_count"] = tests / ok
	m["coverage_pct"] = cover / ok
	return rep, nil
}

// traced alternates an untraced op (on a scheduler collecting worker
// stats, for the busy ratio) with the same op under one span per style;
// both must give the same result.
func (w *scanStyles) traced(rep *report) (*report, error) {
	cfg := w.cfg
	tr := newTracer()
	if _, err := setupScanStyles(cfg, tr); err != nil {
		return nil, err
	}
	m := rep.metrics
	var untraced []time.Duration
	var busy float64
	cfg.minOps = 12
	_, failed := window(cfg, len(styles), func(i int) (time.Duration, error) {
		k, st := w.opAt(i)
		sched := atpg.NewScheduler(cfg.workers)
		sched.CollectStats = true
		d, want, err := w.op(sched, k, st)
		if err != nil {
			return d, err
		}
		untraced = append(untraced, d)
		for _, ws := range sched.Stats() {
			busy += ws.Busy.Seconds() / (float64(cfg.workers) * d.Seconds())
		}
		root := tr.begin(-1, i, rootSpan)
		id := tr.begin(root, i, styleSpans[st])
		td, got, err := w.op(w.sched, k, st)
		tr.end(id)
		tr.end(root)
		if err != nil {
			return d + td, err
		}
		if got.digest(w.pool[k].s.Core) != want.digest(w.pool[k].s.Core) {
			return d + td, fmt.Errorf("op %d: traced %s result %s differs from untraced %s", i, styles[st], got.res.Coverage, want.res.Coverage)
		}
		return d + td, nil
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
	m["atpg.busy_ratio"] = busy / ops
	overhead(m, tr.durations(rootSpan), untraced)
	return rep, finishTrace(cfg, "scan-styles", tr, m, rep)
}
