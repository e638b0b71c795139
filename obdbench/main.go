// Command obdbench is the repository benchmark. It runs one workload
// through the public entry points of the gobd library and its HTTP
// server, checks every operation's output against an independent
// oracle, and prints its metrics as one JSON line.
//
//	obdbench --workload grade-big --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// a separate run records spans around the benchmark's own calls into
// each layer and reports per-layer self time and counts. The workloads,
// metrics and baseline are described in NOTES.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed whose circuits include the committed ones
// (testdata/c432.bench, testdata/s27.bench); other seeds generate
// circuits of the same shapes.
const defaultSeed = 0

// config is one invocation of the benchmark.
type config struct {
	root    string  // repository root; testdata/ is read from here
	out     string  // directory the span file of a traced run is written to
	seed    int64   // workload seed: the same seed gives the same inputs
	seconds float64 // op time one run measures at least
	minOps  int     // timed ops one run holds at least
	workers int     // scheduler workers and serve clients (nproc)
	pool    int     // circuits in a workload's pool; 0 keeps the workload's own size
	trace   bool
}

// poolSize returns the pool size to use for a workload whose own size is n.
func (cfg config) poolSize(n int) int {
	if cfg.pool > 0 {
		return cfg.pool
	}
	return n
}

// report is what one run found: op counts, run-level check failures and
// the metrics of its mode.
type report struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	record    map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, record: map[string]any{}}
}

// fail records a run-level check failure (a pinned census, a
// fingerprint, a determinism or trace-consistency check).
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*report, error){
	"grade-big":    runGradeBig,
	"atpg-signoff": runATPGSignoff,
	"scan-styles":  runScanStyles,
	"serve-grade":  runServeGrade,
}

func main() {
	cfg := config{minOps: 100, workers: runtime.NumCPU()}
	name := flag.String("workload", "", "workload to run: grade-big, atpg-signoff, scan-styles or serve-grade")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&cfg.root, "root", ".", "repository root (testdata/ is read from here)")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for the span file of a traced run")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed (seed 0 includes the committed circuits)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "op time one run measures at least")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	run, ok := workloads[*name]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "obdbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obdbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "obdbench: %s: check failed: %s\n", *name, p)
	}
	rep.record["workload"] = *name
	rec, err := json.Marshal(map[string]any{"run": hostRecord(cfg, rep.record)})
	if err != nil {
		fmt.Fprintf(os.Stderr, "obdbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(rec))
	line, err := resultLine(cfg.trace, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obdbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"pass_ratio", "ratio"},
	{"max_rss_mib", "MiB"},
	{"coverage_pct", "%"},
	{"test_count", "count"},
}

// perLayer are the metrics of a traced run. A layer the workload never
// reaches reports 0.
var perLayer = []metricDef{
	{"logic.parse_ms", "ms"},
	{"logic.index_ms", "ms"},
	{"logic.fingerprint_ms", "ms"},
	{"logic.self_ms", "ms"},
	{"fault.universe_ms", "ms"},
	{"fault.faults", "count"},
	{"fault.self_ms", "ms"},
	{"netcheck.collapse_ms", "ms"},
	{"netcheck.collapse_ratio", "ratio"},
	{"netcheck.exact_ms", "ms"},
	{"netcheck.proofs", "count"},
	{"netcheck.self_ms", "ms"},
	{"sat.aborts", "count"},
	{"sat.detected", "count"},
	{"sat.untestable", "count"},
	{"sat.undecided", "count"},
	{"atpg.grader_build_ms", "ms"},
	{"atpg.propagate_ms", "ms"},
	{"atpg.pair_sims", "count"},
	{"atpg.grade_gap_ms", "ms"},
	{"atpg.busy_ratio", "ratio"},
	{"atpg.allocs_per_grade", "count"},
	{"atpg.podem_ms", "ms"},
	{"atpg.podem_calls", "count"},
	{"atpg.backtracks", "count"},
	{"atpg.drop_ms", "ms"},
	{"atpg.drop_checks", "count"},
	{"atpg.self_ms", "ms"},
	{"seq.enhanced_ms", "ms"},
	{"seq.los_ms", "ms"},
	{"seq.loc_ms", "ms"},
	{"seq.self_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.precache_ms", "ms"},
	{"serve.residual_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.computed", "count"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"serve.self_ms", "ms"},
	{"obdbench.op_ms", "ms"},
	{"obdbench.residual_ms", "ms"},
	{"obdbench.negative_self_ratio", "ratio"},
	{"obdbench.traced_p50_ms", "ms"},
	{"obdbench.untraced_p50_ms", "ms"},
	{"obdbench.overhead_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final line: every metric of the run's mode,
// the op counts, and whether every check passed.
func resultLine(traced bool, rep *report) ([]byte, error) {
	if rep.attempted < 1 {
		return nil, errors.New("no op was attempted")
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	} else {
		rep.metrics["pass_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !traced {
			return nil, errors.New("metric " + d.name + " was not measured")
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.failed == 0 && len(rep.problems) == 0, rep.attempted, rep.failed, metrics})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
