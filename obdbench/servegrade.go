package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/serve"
)

// serve-grade: a closed loop of nproc clients against an in-process
// serve.New server at default config (no data dir) behind a loopback
// listener. Each client sends its next POST /v1/grade only after the
// previous reply. A request carries the OBD model, a c432-shape netlist
// in native format and 256 complete pairs. Half the requests repeat one
// of the client's recently sent bodies (an LRU hit); half carry a fresh
// pair set (a compute).

const (
	servePairs   = 256
	serveHistory = 32 // fresh bodies a client may repeat; both clients' fit the 256-entry LRU
	serveWarmup  = 10 // requests per client before timing
	// serveSetupReps is high because one set-up, a parse and a server
	// start, takes about a millisecond.
	serveSetupReps = 101
)

type serveGrade struct {
	cfg     config
	netlist string         // native-format netlist of every request
	c       *logic.Circuit // the parsed netlist; its input order spells the pairs
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
}

func startServeGrade(cfg config, tr *tracer) (*serveGrade, error) {
	root := tr.begin(-1, -1, setupSpan)
	defer tr.end(root)
	texts, err := c432Shape.netlists(cfg.root, cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	var c *logic.Circuit
	tr.call(root, -1, "logic.parse", func() { c, err = logic.ParseBenchString(texts[0]) })
	if err != nil {
		return nil, err
	}
	w := &serveGrade{cfg: cfg, netlist: logic.Format(c), c: c, served: make(chan error, 1)}
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.srv = srv
	w.hs = &http.Server{Handler: srv.Handler()}
	w.url = "http://" + ln.Addr().String()
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxIdleConnsPerHost: cfg.workers,
		MaxConnsPerHost:     cfg.workers,
		DisableCompression:  true,
	}}
	for {
		resp, err := w.client.Get(w.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return w, nil
			}
		}
		select {
		case err := <-w.served:
			return nil, fmt.Errorf("server stopped before /healthz answered: %w", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop shuts the server down and waits for its goroutine to end.
func (w *serveGrade) stop() error {
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	w.srv.Close()
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// body returns the request body with the given id: the netlist and the
// id's seeded pair set.
func (w *serveGrade) body(id int) ([]byte, error) {
	return json.Marshal(serve.GradeRequest{Netlist: w.netlist, Model: serve.ModelOBD, Tests: w.wirePairs(id)})
}

// wirePairs returns the body id's seeded set of servePairs complete
// pairs in wire form, over the netlist's input order. The bits come 63
// to a random draw, so a client spends little of its loop making bodies.
func (w *serveGrade) wirePairs(id int) []serve.WirePair {
	rng := rand.New(rand.NewSource(subSeed(w.cfg.seed, "serve-grade/body", id)))
	n := len(w.c.Inputs)
	bits := make([]byte, 2*n*servePairs)
	var word int64
	left := 0
	for i := range bits {
		if left == 0 {
			word, left = rng.Int63(), 63
		}
		bits[i] = '0' + byte(word&1)
		word >>= 1
		left--
	}
	all := string(bits)
	out := make([]serve.WirePair, servePairs)
	for k := range out {
		out[k] = serve.WirePair{V1: all[2*k*n : (2*k+1)*n], V2: all[(2*k+1)*n : (2*k+2)*n]}
	}
	return out
}

// pairs returns the body id's pair set as TwoPatterns over c's inputs,
// for the oracle and the traced replay.
func (w *serveGrade) pairs(c *logic.Circuit, id int) []atpg.TwoPattern {
	pattern := func(s string) atpg.Pattern {
		p := make(atpg.Pattern, len(s))
		for i := range s {
			p[c.Inputs[i]] = logic.FromBool(s[i] == '1')
		}
		return p
	}
	wp := w.wirePairs(id)
	out := make([]atpg.TwoPattern, len(wp))
	for k, tp := range wp {
		out[k] = atpg.TwoPattern{V1: pattern(tp.V1), V2: pattern(tp.V2)}
	}
	return out
}

// exchange is one request and its reply.
type exchange struct {
	id      int
	start   time.Time
	status  int
	source  string
	latency time.Duration
	reply   [32]byte
	err     error
	bad     bool // set by the oracle
}

// client is one closed-loop client: its seeded choice of bodies, the
// bodies it may repeat, and what it saw.
type client struct {
	w       *serveGrade
	idx     int
	rng     *rand.Rand
	fresh   int
	history []int
	bodies  map[int][]byte
	firsts  map[int][]byte // the first reply to each body id
	log     []exchange
}

func (w *serveGrade) newClient(idx int) *client {
	return &client{w: w, idx: idx, rng: rand.New(rand.NewSource(subSeed(w.cfg.seed, "serve-grade/client", idx))),
		bodies: map[int][]byte{}, firsts: map[int][]byte{}}
}

// next picks the next body: a repeat of a recent fresh body with
// probability one half, else a fresh one.
func (cl *client) next() (int, []byte, error) {
	if len(cl.history) > 0 && cl.rng.Intn(2) == 0 {
		id := cl.history[cl.rng.Intn(len(cl.history))]
		return id, cl.bodies[id], nil
	}
	id := cl.idx<<24 | cl.fresh
	cl.fresh++
	b, err := cl.w.body(id)
	if err != nil {
		return 0, nil, err
	}
	cl.bodies[id] = b
	cl.history = append(cl.history, id)
	if len(cl.history) > serveHistory {
		delete(cl.bodies, cl.history[0])
		cl.history = cl.history[1:]
	}
	return id, b, nil
}

// send posts one body and records the exchange.
func (cl *client) send(id int, b []byte) exchange {
	start := time.Now()
	ex := exchange{id: id, start: start}
	resp, err := cl.w.client.Post(cl.w.url+"/v1/grade", "application/json", bytes.NewReader(b))
	if err != nil {
		ex.err = err
		ex.latency = time.Since(start)
		return ex
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.latency = time.Since(start)
	ex.status, ex.source, ex.err = resp.StatusCode, resp.Header.Get("Obdserve-Source"), err
	ex.reply = sha256.Sum256(reply)
	if _, ok := cl.firsts[id]; !ok && ex.status == http.StatusOK {
		cl.firsts[id] = reply
	}
	return ex
}

// failed reports whether an exchange failed: a transport error or a
// reply other than 200 (429 included).
func (ex exchange) failed() bool { return ex.err != nil || ex.status != http.StatusOK }

// loop runs every client until the phase holds at least seconds of wall
// time and minOps exchanges in total, or maxWindow has passed. each runs after every exchange,
// on the client's goroutine, outside the exchange's latency.
func (w *serveGrade) loop(clients []*client, seconds float64, minOps int, each func(cl *client, ex exchange, b []byte)) (time.Duration, error) {
	var total atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	start := time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			for (time.Since(start).Seconds() < seconds || total.Load() < int64(minOps)) && time.Since(start) < maxWindow {
				id, b, err := cl.next()
				if err != nil {
					errs[i] = err
					return
				}
				ex := cl.send(id, b)
				total.Add(1)
				each(cl, ex, b)
			}
		}(i, cl)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// oracle checks every exchange: a 200 reply whose coverage equals the
// library's uncollapsed per-fault reference for the body's pairs, and
// for a repeated body the same bytes as its first reply. It marks each
// failed exchange bad and returns the mean coverage of the good ones.
func (w *serveGrade) oracle(clients []*client, rep *report) float64 {
	faults, _ := fault.OBDUniverse(w.c)
	fp, err := w.c.Fingerprint()
	if err != nil {
		rep.fail("fingerprinting the request netlist: %v", err)
	}
	w.c.Index() // after Fingerprint, which validates and drops it, so the parallel checks only read it
	var ids []int
	replies := map[int][]byte{}
	for _, cl := range clients {
		for id, reply := range cl.firsts {
			ids = append(ids, id)
			replies[id] = reply
		}
	}
	verdict := make([]error, len(ids))
	coverage := make([]float64, len(ids))
	parallel(len(ids), w.cfg.workers, func(i int) {
		coverage[i], verdict[i] = w.checkReply(w.c, faults, fp, ids[i], replies[ids[i]])
	})
	at := map[int]int{}
	for i, id := range ids {
		at[id] = i
		if verdict[i] != nil {
			rep.fail("%v", verdict[i])
		}
	}
	var cover float64
	good := 0
	for _, cl := range clients {
		for i := range cl.log {
			ex := &cl.log[i]
			k, ok := at[ex.id]
			switch {
			case ex.failed() || !ok || verdict[k] != nil:
				ex.bad = true
			case ex.reply != sha256.Sum256(replies[ex.id]):
				rep.fail("body %d: a repeated reply (%s) differs from the first one", ex.id, ex.source)
				ex.bad = true
			default:
				cover += coverage[k]
				good++
			}
		}
	}
	if good == 0 {
		return 0
	}
	return cover / float64(good)
}

// checkReply compares one reply with the library reference and returns
// its coverage percentage.
func (w *serveGrade) checkReply(c *logic.Circuit, faults []fault.OBD, fp logic.Fingerprint, id int, reply []byte) (float64, error) {
	var got serve.GradeResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return 0, fmt.Errorf("body %d: reply is not a GradeResponse: %v", id, err)
	}
	ref, _ := reference(c, faults, w.pairs(c, id))
	gc := atpg.Coverage{Total: got.Coverage.Total, Detected: got.Coverage.Detected, Undetected: got.Coverage.Undetected}
	switch {
	case coverageDigest(gc) != coverageDigest(ref):
		return 0, fmt.Errorf("body %d: served coverage %s differs from the library reference %s", id, gc, ref)
	case got.Faults != len(faults) || got.Tests != servePairs || got.Model != serve.ModelOBD || got.Fingerprint != fp.String():
		return 0, fmt.Errorf("body %d: reply header fields %d faults, %d tests, model %q, fingerprint %s are wrong", id, got.Faults, got.Tests, got.Model, got.Fingerprint)
	case got.Coverage.Ratio != ref.Ratio():
		return 0, fmt.Errorf("body %d: served ratio %v, want %v", id, got.Coverage.Ratio, ref.Ratio())
	}
	return 100 * ref.Ratio(), nil
}

func runServeGrade(cfg config) (*report, error) {
	rep := newReport()
	w, err := setupReps(rep, serveSetupReps, func() (*serveGrade, error) { return startServeGrade(cfg, nil) },
		func(w *serveGrade) error { return w.stop() })
	if err != nil {
		return nil, err
	}
	defer w.stop() //nolint:errcheck // the run's result is already decided; stop only releases the listener
	m := rep.metrics
	if cfg.seed == defaultSeed {
		c432Shape.checkCommitted(cfg.root, rep)
	}
	clients := make([]*client, cfg.workers)
	for i := range clients {
		clients[i] = w.newClient(i)
	}
	record := func(cl *client, ex exchange, _ []byte) { cl.log = append(cl.log, ex) }
	if _, err := w.loop(clients, 0, serveWarmup*len(clients), record); err != nil {
		return nil, err
	}
	rep.record["warmup_ops"] = serveWarmup * len(clients)
	warm := make([]int, len(clients))
	for i, cl := range clients {
		warm[i] = len(cl.log)
	}
	if cfg.trace {
		return w.traced(rep, clients, warm)
	}
	steal := readSteal()
	rss := sampleRSS()
	wall, err := w.loop(clients, cfg.seconds, cfg.minOps, record)
	m["max_rss_mib"] = rss.median()
	rep.record["steal_share"] = stealShare(steal)
	if err != nil {
		return nil, err
	}
	var lat []time.Duration
	var inRequest time.Duration
	ops := 0
	for i, cl := range clients {
		for _, ex := range cl.log[warm[i]:] {
			ops++
			inRequest += ex.latency
			if !ex.failed() {
				lat = append(lat, ex.latency)
			}
		}
	}
	latencyMetrics(rep, lat, wall, ops)
	// The share of the clients' wall time spent outside requests: making
	// bodies and keeping replies, which ops_per_s counts as wait.
	rep.record["client_share"] = 1 - inRequest.Seconds()/(wall.Seconds()*float64(len(clients)))
	m["coverage_pct"] = w.oracle(clients, rep)
	tally(clients, warm, rep)
	m["test_count"] = servePairs
	rep.record["clients"] = len(clients)
	snap := w.srv.Snapshot()
	rep.record["server"] = map[string]int64{"cache_hits": snap["cache_hits"], "computed": snap["computed"],
		"coalesced": snap["coalesced"], "rejected": snap["rejected"]}
	return rep, nil
}

// traced runs an untraced phase and then a traced one, each for half
// the run. In the traced phase every request is one span, and the
// handler's stages are attributed inside it by replaying the body
// through the same public calls the handler makes (the cache-hit stages
// for a hit, all of them for a computed reply). The handler's private
// stages (pair parsing, the cache-key digest) stay in the residual.
func (w *serveGrade) traced(rep *report, clients []*client, warm []int) (*report, error) {
	cfg := w.cfg
	tr := newTracer()
	if v, err := startServeGrade(cfg, tr); err != nil {
		return nil, err
	} else if err := v.stop(); err != nil {
		return nil, err
	}
	m := rep.metrics
	var mu sync.Mutex
	var untraced []time.Duration
	if _, err := w.loop(clients, cfg.seconds/2, 50, func(cl *client, ex exchange, _ []byte) {
		cl.log = append(cl.log, ex)
		if !ex.failed() {
			mu.Lock()
			untraced = append(untraced, ex.latency)
			mu.Unlock()
		}
	}); err != nil {
		return nil, err
	}
	var traced []exchange
	if _, err := w.loop(clients, cfg.seconds/2, 50, func(cl *client, ex exchange, _ []byte) {
		cl.log = append(cl.log, ex)
		if !ex.failed() {
			mu.Lock()
			traced = append(traced, ex)
			mu.Unlock()
		}
	}); err != nil {
		return nil, err
	}
	// The stages are replayed after the loop, one request at a time, so
	// they are timed without the other clients' load; each stage's time is
	// the median of replayReps replays, so one garbage collection or
	// preemption does not decide it.
	ops := 0
	var residual, precache time.Duration
	for _, ex := range traced {
		b, err := w.body(ex.id)
		if err != nil {
			return nil, err
		}
		stages, pre, err := replayMedian(b, w.pairs(w.c, ex.id), ex.source == "computed", cfg.workers)
		if err != nil {
			rep.fail("replaying body %d: %v", ex.id, err)
			continue
		}
		root := tr.record(-1, ops, rootSpan, ex.start, ex.latency)
		req := tr.record(root, ops, "serve.request", ex.start, ex.latency)
		var attributed time.Duration
		for _, st := range stages {
			tr.replayed(req, ops, st.name, st.d)
			attributed += st.d
		}
		residual += ex.latency - attributed
		precache += pre
		ops++
	}
	if ops == 0 {
		return nil, errors.New("no traced request succeeded")
	}
	w.oracle(clients, rep)
	tally(clients, warm, rep)
	snap := w.srv.Snapshot()
	if n := snap["cache_hits"] + snap["cache_misses"]; n > 0 {
		m["serve.hit_ratio"] = float64(snap["cache_hits"]) / float64(n)
	}
	m["serve.computed"] = float64(snap["computed"])
	m["serve.coalesced"] = float64(snap["coalesced"])
	m["serve.rejected"] = float64(snap["rejected"])
	m["serve.residual_ms"] = ms(residual) / float64(ops)
	m["serve.precache_ms"] = ms(precache) / float64(ops)
	faults, _ := fault.OBDUniverse(w.c)
	m["fault.faults"] = float64(len(faults))
	overhead(m, tr.durations(rootSpan), untraced)
	return rep, finishTrace(cfg, "serve-grade", tr, m, rep)
}

// tally counts each client's exchanges after its first warm ones as
// attempted and the bad ones among them as failed; a bad warm-up
// exchange fails the run.
func tally(clients []*client, warm []int, rep *report) {
	for i, cl := range clients {
		for k, ex := range cl.log {
			switch {
			case k < warm[i]:
				if ex.bad {
					rep.fail("warm-up request %d of client %d failed", k, i)
				}
			case ex.bad:
				rep.attempted++
				rep.failed++
			default:
				rep.attempted++
			}
		}
	}
}

// replayReps is how often each traced request's stages are replayed.
const replayReps = 3

// replayMedian replays a body replayReps times and returns each stage's
// median time and the median pre-cache total.
func replayMedian(body []byte, pairs []atpg.TwoPattern, computed bool, workers int) ([]stage, time.Duration, error) {
	var runs [][]stage
	var pres []time.Duration
	for r := 0; r < replayReps; r++ {
		stages, pre, err := replay(body, pairs, computed, workers)
		if err != nil {
			return nil, 0, err
		}
		if r > 0 && len(stages) != len(runs[0]) {
			return nil, 0, fmt.Errorf("replays gave %d and %d stages", len(runs[0]), len(stages))
		}
		runs = append(runs, stages)
		pres = append(pres, pre)
	}
	out := make([]stage, len(runs[0]))
	for i := range out {
		ds := make([]time.Duration, len(runs))
		for r := range runs {
			ds[r] = runs[r][i].d
		}
		out[i] = stage{runs[0][i].name, percentile(ds, 0.5)}
	}
	return out, percentile(pres, 0.5), nil
}

// stage is one replayed handler stage.
type stage struct {
	name string
	d    time.Duration
}

// replay runs one request body through the public calls the /v1/grade
// handler makes and times each stage: the pre-cache stages always, the
// compute and encode stages when the reply was computed. pairs are the
// body's pairs; the handler's own pair parsing and cache-key digest are
// private to serve, so they are not replayed and stay in the request's
// residual. It returns the stages and the pre-cache total.
func replay(body []byte, pairs []atpg.TwoPattern, computed bool, workers int) ([]stage, time.Duration, error) {
	var stages []stage
	var err error
	timed := func(name string, fn func()) {
		start := time.Now()
		fn()
		stages = append(stages, stage{name, time.Since(start)})
	}
	var req serve.GradeRequest
	timed("serve.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return nil, 0, err
	}
	var c *logic.Circuit
	timed("logic.parse", func() { c, err = logic.ParseLenientString(req.Netlist) })
	if err != nil {
		return nil, 0, err
	}
	timed("logic.index", func() { err = c.Validate() })
	if err != nil {
		return nil, 0, err
	}
	var fp logic.Fingerprint
	timed("logic.fingerprint", func() {
		fp, err = c.Fingerprint()
		logic.Format(c)
	})
	if err != nil {
		return nil, 0, err
	}
	var faults []fault.OBD
	timed("fault.universe", func() { faults, _ = fault.OBDUniverse(c) })
	var pre time.Duration
	for _, st := range stages {
		pre += st.d
	}
	if !computed {
		return stages, pre, nil
	}
	timed("logic.index", func() { c.Index() })
	gt := newTracer()
	groot := gt.begin(-1, 0, rootSpan)
	cov, _, _ := shardedGrade(gt, groot, 0, workers, c, faults, pairs)
	gt.end(groot)
	for _, s := range gt.spans {
		if s.Parent == groot && !s.Concurrent {
			stages = append(stages, stage{s.Name, s.dur()})
		}
	}
	timed("serve.encode", func() {
		_, err = json.Marshal(&serve.GradeResponse{Circuit: c.Name, Fingerprint: fp.String(), Model: serve.ModelOBD,
			Faults: len(faults), Tests: len(pairs),
			Coverage: serve.WireCoverage{Total: cov.Total, Detected: cov.Detected, Ratio: cov.Ratio(), Undetected: cov.Undetected}})
	})
	return stages, pre, err
}
