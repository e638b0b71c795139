package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"gobd/internal/atpg"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny is a configuration small enough for a test: two-circuit pools,
// a few ops, a short window.
func tiny(t *testing.T, traced bool) config {
	return config{root: "..", out: t.TempDir(), seed: defaultSeed, seconds: 0.01, minOps: 3,
		workers: runtime.NumCPU(), pool: 2, trace: traced}
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json tiny, in
// both modes, and checks that its result line is correct and carries
// every metric of the mode with the declared unit.
func TestEveryMetricEmitted(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("BENCHMARK.json names workloads %v, the program runs %v", names, have)
	}
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q has no runner", name)
		}
		for _, traced := range []bool{false, true} {
			rep, err := run(tiny(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			line, err := resultLine(traced, rep)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			var res struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d problems=%v", name, traced, res.Correct, res.Attempted, res.Failed, rep.problems)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%t: metric %s in %s, BENCHMARK.json says %s", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGradeBigCheckerCountsTampering flips one verdict of a real grade.
func TestGradeBigCheckerCountsTampering(t *testing.T) {
	w, err := setupGradeBig(tiny(t, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs := w.pairs(0)
	cov, err := w.sched.GradeOBD(w.c, w.faults, pairs)
	if err != nil {
		t.Fatal(err)
	}
	rec := gradeRec{op: 0, digest: coverageDigest(cov), detected: cov.Detected, total: cov.Total}
	if err := w.check(rec); err != nil {
		t.Fatalf("untampered grade rejected: %v", err)
	}
	flipped := atpg.Coverage{Total: cov.Total, Detected: cov.Detected + 1, Undetected: cov.Undetected[1:]}
	rec.digest = coverageDigest(flipped)
	if w.check(rec) == nil {
		t.Fatal("a grade with one flipped verdict passed the oracle")
	}
}

// TestATPGSignoffCheckerCountsTampering flips a leftover fault's exact
// verdict and a fault's status.
func TestATPGSignoffCheckerCountsTampering(t *testing.T) {
	w, err := setupATPGSignoff(tiny(t, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, o, err := w.op(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(o); err != nil {
		t.Fatalf("untampered output rejected: %v", err)
	}
	if len(o.verdicts) == 0 {
		t.Fatal("the committed c432 circuit has no leftover fault to tamper with")
	}
	verdict := *o
	verdict.verdicts = append(verdict.verdicts[:0:0], o.verdicts...)
	verdict.verdicts[0].Testable = true
	status := *o
	ts := *o.ts
	ts.Results = append(ts.Results[:0:0], o.ts.Results...)
	for i, r := range ts.Results {
		if r.Status == atpg.Untestable {
			ts.Results[i].Status = atpg.Aborted
			break
		}
	}
	status.ts = &ts
	for _, bad := range []*signoffOut{&verdict, &status} {
		if w.check(bad) == nil {
			t.Error("a tampered output passed the oracle")
		}
		if bad.digest(w.pool[0].c) == o.digest(w.pool[0].c) {
			t.Error("a tampered output has the checked output's digest, so a timed op returning it would pass")
		}
	}
}

// TestScanStylesCheckerCountsTampering flips a detected fault to
// untestable in one style's result.
func TestScanStylesCheckerCountsTampering(t *testing.T) {
	w, err := setupScanStyles(tiny(t, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(tamper bool) *verifier[*scanOut] {
		v := newVerifier[*scanOut]()
		for k := range w.pool {
			for st := range styles {
				_, o, err := w.op(w.sched, k, st)
				if err != nil {
					t.Fatal(err)
				}
				if tamper && k == 0 && st == 1 {
					r := *o.res
					r.Statuses = append(r.Statuses[:0:0], r.Statuses...)
					for i, s := range r.Statuses {
						if s == atpg.Detected {
							r.Statuses[i] = atpg.Untestable
							r.Tests = append(r.Tests[:0:0], r.Tests[1:]...)
							r.Coverage.Detected--
							break
						}
					}
					o.res = &r
				}
				v.add(k*len(styles)+st, o.digest(w.pool[k].s.Core), o)
			}
		}
		return v
	}
	v := fill(false)
	rep := newReport()
	if n := v.checkAll(rep, w.check) + w.checkMembers(v, rep); n != 0 {
		t.Fatalf("untampered results rejected: %v", rep.problems)
	}
	v = fill(true)
	if n := v.checkAll(newReport(), w.check) + w.checkMembers(v, newReport()); n == 0 {
		t.Fatal("a result with a flipped verdict passed the oracle")
	}
}

// TestServeGradeCheckerCountsTampering corrupts one byte of a served
// reply.
func TestServeGradeCheckerCountsTampering(t *testing.T) {
	cfg := tiny(t, false)
	w, err := startServeGrade(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.stop(); err != nil {
			t.Error(err)
		}
	}()
	cl := w.newClient(0)
	if _, err := w.loop([]*client{cl}, 0, 6, func(cl *client, ex exchange, _ []byte) { cl.log = append(cl.log, ex) }); err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	if w.oracle([]*client{cl}, rep); len(rep.problems) != 0 {
		t.Fatalf("untampered replies rejected: %v", rep.problems)
	}
	id := cl.log[0].id
	reply := append([]byte(nil), cl.firsts[id]...)
	for i, b := range reply {
		if b >= '1' && b <= '8' {
			reply[i]++ // one wrong digit
			break
		}
	}
	cl.firsts[id] = reply
	for i := range cl.log {
		cl.log[i].bad = false
	}
	w.oracle([]*client{cl}, newReport())
	bad := 0
	for _, ex := range cl.log {
		if ex.bad {
			bad++
		}
		if ex.id == id && !ex.bad {
			t.Error("an exchange of the tampered body passed the oracle")
		}
	}
	if bad == 0 {
		t.Fatal("a reply with one wrong byte passed the oracle")
	}
}

// TestTraceCheckCountsNegativeSelf feeds the per-layer report spans
// whose children outlast their parent, timed in place and replayed.
func TestTraceCheckCountsNegativeSelf(t *testing.T) {
	build := func(op time.Duration, child time.Duration, replayed bool) *tracer {
		tr := newTracer()
		start := tr.epoch.Add(time.Millisecond)
		for i := 0; i < 4; i++ {
			root := tr.record(-1, i, rootSpan, start, op)
			req := tr.record(root, i, "serve.request", start, op)
			if replayed {
				tr.replayed(req, i, "logic.parse", child)
			} else {
				tr.record(req, i, "logic.parse", start, child)
			}
		}
		return tr
	}
	for _, replayed := range []bool{false, true} {
		rep := newReport()
		m := map[string]float64{}
		build(2*time.Millisecond, time.Millisecond, replayed).layerReport(m, rep)
		if len(rep.problems) != 0 || m["obdbench.negative_self_ratio"] != 0 {
			t.Errorf("replayed=%t: children shorter than their parent rejected: %v", replayed, rep.problems)
		}
		rep = newReport()
		m = map[string]float64{}
		build(time.Millisecond, 2*time.Millisecond, replayed).layerReport(m, rep)
		if len(rep.problems) == 0 || m["obdbench.negative_self_ratio"] != 1 {
			t.Errorf("replayed=%t: children longer than their parent passed (ratio %v)", replayed, m["obdbench.negative_self_ratio"])
		}
	}
}
