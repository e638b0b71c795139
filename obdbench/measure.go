package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// window runs op(i) for i = 0, 1, ... back to back until the ops hold at
// least cfg.seconds of op time, there are at least cfg.minOps of them
// and their count is a whole number of cycles. op times its own library
// calls and returns that time; the work it does around them (making
// inputs, digesting outputs) is untimed. A window also closes after
// maxWindow of wall time, so a run whose ops slowed down or fail at once
// still ends. It returns the latency of every op that did not fail and
// the number that failed.
func window(cfg config, cycle int, op func(i int) (time.Duration, error)) (lat []time.Duration, failed int) {
	var total time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		if i%cycle == 0 && i >= cfg.minOps && total.Seconds() >= cfg.seconds || time.Since(start) > maxWindow {
			return lat, failed
		}
		d, err := op(i)
		total += d
		if err != nil {
			failed++
			continue
		}
		lat = append(lat, d)
	}
}

// maxWindow bounds a timed window's wall time; a run must end within
// three minutes, set-up and oracle included.
const maxWindow = 100 * time.Second

// parallel calls fn(i) for every i in [0,n) on workers goroutines and
// waits for them. The oracles use it: they run after the timed window,
// when the cores are free.
func parallel(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// latencyMetrics sets the timing metrics of an op-latency sample:
// ops_per_s over the given window, the median, and the 90th percentile
// (a run holds at least 100 ops, so ten samples lie beyond it). The
// sample counts go into the run record.
func latencyMetrics(rep *report, lat []time.Duration, window time.Duration, ops int) {
	rep.metrics["ops_per_s"] = float64(ops) / window.Seconds()
	rep.metrics["op_p50_ms"] = ms(percentile(lat, 0.50))
	rep.metrics["op_p90_ms"] = ms(percentile(lat, 0.90))
	rep.record["ops"] = ops
	rep.record["latency_samples"] = len(lat)
	rep.record["beyond_p90"] = len(lat) - int(0.9*float64(len(lat))+0.999999)
}

// percentile returns the nearest-rank q-quantile of the sample.
func percentile(sample []time.Duration, q float64) time.Duration {
	if len(sample) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), sample...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// processStart approximates the process's start: package variables are
// set before main runs.
var processStart = time.Now()

// setupReps runs a workload's set-up reps times and returns the last
// state. setup_s is the median set-up time, so that one cold sample does
// not decide it; the run record keeps the cold start beside it:
// cold_setup_s, from process start to the end of the first set-up,
// which includes the runtime's start and every first-use cost. Each
// set-up after the first starts from a collected heap, so the garbage
// collector's timing does not decide it. discard, when non-nil, releases
// each state but the last, untimed.
func setupReps[T any](rep *report, reps int, setup func() (T, error), discard func(T) error) (T, error) {
	var last T
	times := make([]time.Duration, 0, reps)
	for r := 0; r < reps; r++ {
		if r > 0 {
			runtime.GC()
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(start))
		if r == 0 {
			rep.record["cold_setup_s"] = time.Since(processStart).Seconds()
		}
		if discard != nil && r < reps-1 {
			if err := discard(v); err != nil {
				return last, err
			}
		}
		last = v
	}
	rep.metrics["setup_s"] = percentile(times, 0.5).Seconds()
	rep.record["setup_reps"] = reps
	return last, nil
}

// rssSampler measures max_rss_mib: the median, over the timed window's
// 25 ms intervals, of the peak resident set in each interval. Linux
// keeps the process's peak (VmHWM) and resets it to the current resident
// set when "5" is written to /proc/self/clear_refs; the sampler reads
// and resets it every interval. The median of interval peaks is the
// memory the work holds; the single process peak (getrusage) swings by
// a quarter from run to run with the garbage collector's timing. Where
// the peak cannot be reset, the sampler reports the getrusage peak.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	reset bool
}

const rssInterval = 25 * time.Millisecond

// sampleRSS starts a sampler; call median to stop it.
func sampleRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	r.reset = resetPeakRSS()
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				if p := peakRSSMiB(); p > 0 {
					r.peaks = append(r.peaks, p)
				}
				r.reset = r.reset && resetPeakRSS()
			}
		}
	}()
	return r
}

// median stops the sampler, waits for it, and returns its measurement.
func (r *rssSampler) median() float64 {
	close(r.stop)
	<-r.done
	if !r.reset || len(r.peaks) == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	sort.Float64s(r.peaks)
	return r.peaks[len(r.peaks)/2]
}

// resetPeakRSS resets the process's peak resident set to the current
// one, reporting whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM), or 0.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// hostRecord is the provenance of a run: seed, code, host and samples.
func hostRecord(cfg config, rec map[string]any) map[string]any {
	rec["seed"] = cfg.seed
	rec["seconds"] = cfg.seconds
	rec["trace"] = cfg.trace
	rec["commit"] = gitCommit(cfg.root)
	rec["source_sha256"] = sourceDigest(cfg.root)
	rec["cpu_model"] = cpuModel()
	rec["nproc"] = runtime.NumCPU()
	rec["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rec["go_version"] = runtime.Version()
	return rec
}

// gitCommit reads HEAD from the repository's .git directory, or returns
// "none" when the tree is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(id))
	}
	if f, err := os.Open(filepath.Join(root, ".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) == 2 && fields[1] == name {
				return fields[0]
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root, so a run
// outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries are skipped
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		io.Copy(h, f) //nolint:errcheck // a short read changes the digest, which is all it can do
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostSteal is a reading of the "steal" column of /proc/stat: CPU time
// the hypervisor gave to other machines while this one wanted it.
// Stolen time lengthens every op without any change to the code, so the
// run record keeps the window's steal share beside the timings.
type hostSteal struct {
	steal, total uint64
	ok           bool
}

func readSteal() hostSteal {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostSteal{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostSteal{}
	}
	var h hostSteal
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostSteal{}
		}
		h.total += n
		if i == 7 {
			h.steal = n
		}
	}
	h.ok = true
	return h
}

// stealShare returns the share of all CPU time stolen since start, or -1
// where the host does not report it.
func stealShare(start hostSteal) float64 {
	end := readSteal()
	if !start.ok || !end.ok || end.total <= start.total {
		return -1
	}
	return float64(end.steal-start.steal) / float64(end.total-start.total)
}
