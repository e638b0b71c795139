package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// A traced run records one span around each call the benchmark makes
// into a layer. Spans stay in memory and are written out when the run
// ends. A span's name is "<module>.<call>"; the module before the dot is
// its layer. Every op has one root span named rootSpan, and every span
// of the op carries the op's id.
const (
	rootSpan  = "obdbench.op"
	setupSpan = "obdbench.setup"
)

// span is one recorded interval.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Op     int           `json:"op"`     // shared by the spans of one op; -1 in set-up
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer was made
	End    time.Duration `json:"end_ns"`
	// Concurrent marks a span that ran alongside its siblings on another
	// goroutine. Its parent's self time does not subtract it; the
	// parent's own wall time already covers it.
	Concurrent bool `json:"concurrent,omitempty"`
	// Replayed marks a span whose duration was measured by replaying the
	// stage outside its parent (serve handler stages); it is placed
	// inside the parent's interval for attribution.
	Replayed bool `json:"replayed,omitempty"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans; it is safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id. A nil tracer records nothing.
func (t *tracer) begin(parent, op int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// endConcurrent closes a span that ran on its own goroutine beside its
// siblings.
func (t *tracer) endConcurrent(id int) {
	t.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Concurrent = true
}

// call records fn as one span.
func (t *tracer) call(parent, op int, name string, fn func()) {
	id := t.begin(parent, op, name)
	fn()
	t.end(id)
}

// record adds a span timed by the caller: it started at start and
// lasted d.
func (t *tracer) record(parent, op int, name string, start time.Time, d time.Duration) int {
	at := start.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: at, End: at + d})
	return len(t.spans) - 1
}

// replayed records a stage that was timed outside its parent as a child
// of known duration d.
func (t *tracer) replayed(parent, op int, name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: p.Start, End: p.Start + d, Replayed: true})
}

// durations returns the duration of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// layerReport sets the per-layer metrics of the recorded spans:
//
//   - "<name>_ms" for every span name: its total duration divided by the
//     number of ops that made such a call (set-up spans: by the number
//     of set-ups);
//   - "<layer>.self_ms": per op, the layer's spans' durations minus the
//     part their non-concurrent children cover;
//   - obdbench.residual_ms: per op, the root spans' self time;
//   - obdbench.op_ms: the mean root span;
//   - obdbench.negative_self_ratio: the share of ops in which some span's
//     children took longer than the span itself.
//
// Self times partition each root span, so the layers' self times plus
// the residual add up to obdbench.op_ms. What can go wrong is a negative
// self time: it makes a layer look cheaper than it is and another
// dearer. A span timed in place cannot have one unless the tracing is
// wrong, so any such op fails the run's check. A span with replayed
// children (a serve request whose stages were replayed after it) has
// one when the replay ran slower than the request; the run fails its
// check when more than maxNegativeReplayed of its ops have one.
func (t *tracer) layerReport(m map[string]float64, rep *report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]time.Duration, len(t.spans))
	replayedChildren := make([]bool, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && !s.Concurrent {
			children[s.Parent] += s.dur()
			replayedChildren[s.Parent] = replayedChildren[s.Parent] || s.Replayed
		}
	}
	negTimed, negReplayed := map[int]bool{}, map[int]bool{}
	var ops, setups int
	var rootTotal time.Duration
	opNames := map[string]time.Duration{}
	opsWith := map[string]map[int]bool{}
	setupNames := map[string]time.Duration{}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		switch {
		case s.Name == rootSpan:
			ops++
			rootTotal += s.dur()
		case s.Name == setupSpan:
			setups++
		case s.Op >= 0:
			opNames[s.Name] += s.dur()
			if opsWith[s.Name] == nil {
				opsWith[s.Name] = map[int]bool{}
			}
			opsWith[s.Name][s.Op] = true
		default:
			setupNames[s.Name] += s.dur()
		}
		if s.Op >= 0 && !s.Concurrent {
			d := s.dur() - children[s.ID]
			self[s.layer()] += d
			switch {
			case d >= 0:
			case replayedChildren[s.ID]:
				negReplayed[s.Op] = true
			default:
				negTimed[s.Op] = true
			}
		}
	}
	if ops == 0 {
		rep.fail("traced run recorded no op")
		return
	}
	for name, d := range setupNames {
		if setups > 0 {
			m[name+"_ms"] = ms(d) / float64(setups)
		}
	}
	for name, d := range opNames {
		m[name+"_ms"] = ms(d) / float64(len(opsWith[name]))
	}
	for layer, d := range self {
		v := ms(d) / float64(ops)
		if layer == "obdbench" {
			m["obdbench.residual_ms"] = v
		} else {
			m[layer+".self_ms"] = v
		}
	}
	m["obdbench.op_ms"] = ms(rootTotal) / float64(ops)
	negative := map[int]bool{}
	for op := range negTimed {
		negative[op] = true
	}
	for op := range negReplayed {
		negative[op] = true
	}
	m["obdbench.negative_self_ratio"] = float64(len(negative)) / float64(ops)
	if len(negTimed) > 0 {
		rep.fail("%d of %d traced ops have a span whose children took longer than it", len(negTimed), ops)
	}
	if share := float64(len(negReplayed)) / float64(ops); share > maxNegativeReplayed {
		rep.fail("in %.1f%% of traced ops the replayed stages took longer than the request", 100*share)
	}
}

// maxNegativeReplayed is the largest share of traced ops whose replayed
// stages may add up to more than the span they are attributed to.
const maxNegativeReplayed = 0.05

// overhead sets the tracing overhead: the traced op median minus the
// untraced op median measured in the same run.
func overhead(m map[string]float64, traced, untraced []time.Duration) {
	m["obdbench.traced_p50_ms"] = ms(percentile(traced, 0.5))
	m["obdbench.untraced_p50_ms"] = ms(percentile(untraced, 0.5))
	m["obdbench.overhead_ms"] = m["obdbench.traced_p50_ms"] - m["obdbench.untraced_p50_ms"]
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("obdbench-trace-%s-seed%d.json", workload, seed))
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// finishTrace turns a traced run's spans into its per-layer metrics and
// writes the spans out.
func finishTrace(cfg config, workload string, t *tracer, m map[string]float64, rep *report) error {
	t.layerReport(m, rep)
	path, err := t.write(cfg.out, workload, cfg.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.record["trace_file"] = path
	t.mu.Lock()
	rep.record["spans"] = len(t.spans)
	t.mu.Unlock()
	return nil
}
