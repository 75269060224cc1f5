// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed wall-clock budget and prints every metric by
// name and unit; its last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 it measures end to end: a single caller issues engine
// calls back to back through the public balls API (a closed loop with
// one client), with Workers and GOMAXPROCS both pinned to the number of
// CPUs. Set-up probes and single-worker calls of the same seeds are
// interleaved with the main calls.
//
// With --trace 1 it replays the workload serially through the public
// functions of the layers (bins, dist, sampling, protocol, chash, obs),
// recording a span around every layer call, and reports per-layer
// metrics. Spans stay in memory and are written out when the run ends.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench --compare OLD.json NEW.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/xrand"
)

// metricSpec declares one reported metric; the lists mirror
// BENCHMARK.json (a test keeps them in step).
type metricSpec struct {
	name, unit, better string
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"call_s.p50", "s", "lower"},
	{"call_s.tail", "s", "lower"},
	{"balls_per_s", "1/s", "higher"},
	{"scaling_eff", "ratio", "higher"},
	{"alloc_mb_per_call", "MB", "lower"},
	{"allocs_per_call", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricSpec{
	{"protocol.place_s", "s", "lower"},
	{"protocol.place_balls", "count", "higher"},
	{"protocol.ns_per_ball", "ns", "lower"},
	{"protocol.build_s", "s", "lower"},
	{"protocol.builds", "count", "lower"},
	{"sampling.route_s", "s", "lower"},
	{"sampling.route_blocks", "count", "lower"},
	{"sampling.delete_s", "s", "lower"},
	{"sampling.delete_draws", "count", "lower"},
	{"bins.remove_s", "s", "lower"},
	{"bins.remove_calls", "count", "lower"},
	{"bins.setup_s", "s", "lower"},
	{"bins.hist_s", "s", "lower"},
	{"bins.hist_calls", "count", "lower"},
	{"chash.build_s", "s", "lower"},
	{"chash.ring_points", "count", "lower"},
	{"chash.reshard_s", "s", "lower"},
	{"chash.reshard_ops", "count", "lower"},
	{"chash.arcs_s", "s", "lower"},
	{"obs.snapshot_s", "s", "lower"},
	{"obs.snapshots", "count", "lower"},
	{"obs.latency_s", "s", "lower"},
	{"sim.self_s", "s", "lower"},
	{"sim.serial_frac", "ratio", "lower"},
	{"sim.shard_imbalance", "ratio", "lower"},
	{"cluster.crashes", "count", "lower"},
	{"cluster.recoveries", "count", "higher"},
	{"cluster.redistributed", "count", "lower"},
	{"cluster.retried", "count", "lower"},
	{"cluster.shed", "count", "lower"},
	{"cluster.goodput_frac", "ratio", "higher"},
	{"cluster.retry_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// Run-length floors: a run keeps going past its budget until it has
// these many samples, so the tail percentile and the medians exist.
const (
	minMain   = tailBeyond + 1
	minOne    = 3
	minProbe  = 3
	minReplay = 3
	// hardLimit stops a run regardless of the floors.
	hardLimit = 150 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// topology is what a run's numbers depend on besides the code; runs are
// comparable only when it is identical.
type topology struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Workers    int    `json:"workers"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

type record struct {
	Topology topology       `json:"topology"`
	Commit   string         `json:"commit"`
	Workload string         `json:"workload"`
	Params   string         `json:"params"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    int            `json:"trace"`
	Samples  map[string]int `json:"samples"`
	// Raw holds every timed sample in seconds, by kind, in run order.
	Raw      map[string][]float64 `json:"raw"`
	Notes    []string             `json:"notes,omitempty"`
	Correct  bool                 `json:"correct"`
	Attempts int                  `json:"attempted"`
	Failed   int                  `json:"failed"`
	Metrics  map[string]metric    `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: large-place, stream-churn, cluster-serve or paper-reps")
	seed := fs.Uint64("seed", 1, "workload seed; every engine seed of the run derives from it")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer replay")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run records and spans")
	compare := fs.Bool("compare", false, "compare the two run records given as arguments")
	rssChild := fs.Bool("rss-child", false, "run one main call and print this process's peak resident set in MB (used by peak_rss_mb)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("--compare needs two run records")
		}
		return compareRecords(fs.Arg(0), fs.Arg(1))
	}
	w := findWorkload(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	if *rssChild {
		return rssChildRun(w, *seed, workers)
	}
	rec := &record{
		Topology: topology{
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Workers: workers,
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		},
		Commit:   commit(),
		Workload: w.name, Params: w.params, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Samples: map[string]int{}, Raw: map[string][]float64{}, Metrics: map[string]metric{},
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d commit=%s\n", w.name, *seed, *seconds, *trace, rec.Commit)
	fmt.Printf("topology: %+v\n", rec.Topology)
	fmt.Printf("params: %s\nwork unit: %s; predicted dominant layer: %s\n", w.params, w.unit, w.dominant)
	budget := time.Duration(*seconds * float64(time.Second))
	var err error
	if *trace == 0 {
		err = measure(w, rec, *seed, budget, workers)
	} else {
		err = traceRun(w, rec, *seed, budget, *out)
	}
	if err != nil {
		return err
	}
	rec.Correct = rec.Failed == 0
	if err := writeRecord(rec, *out); err != nil {
		return err
	}
	printMetrics(rec)
	line, err := json.Marshal(map[string]any{"correct": rec.Correct, "attempted": rec.Attempts, "failed": rec.Failed, "metrics": rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// commit is the code version under test, passed in by run.sh.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// callSeed derives call i's engine seed from the workload seed.
func callSeed(seed uint64, i int) uint64 {
	if s := xrand.Mix64(seed, uint64(i)); s != 0 {
		return s
	}
	return 1
}

func timed(f func() error) (float64, error) {
	runtime.GC() // every call starts from a collected heap
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// timedCall times one engine call, then checks and summarises it
// outside the timed region.
func timedCall(w *workload, seed uint64, workers int) (result, float64, error) {
	var summary func() (result, error)
	dt, err := timed(func() (err error) { summary, err = w.call(seed, workers); return err })
	if err != nil {
		return result{}, 0, err
	}
	res, err := summary()
	return res, dt, err
}

// rssProcs is the number of single-call processes whose median peak
// resident set is peak_rss_mb. A process's peak depends on where the
// concurrent collector happens to finish relative to the call's large
// allocations, so a single long-lived process reads one of two levels
// at random; the median over fresh processes does not.
const rssProcs = 3

// rssChildRun is one process of the peak_rss_mb measurement: one checked
// main call, then the process's peak resident set on standard output.
func rssChildRun(w *workload, seed uint64, workers int) error {
	if _, _, err := timedCall(w, seed, workers); err != nil {
		return err
	}
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	fmt.Println(mb)
	return nil
}

func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}

// childPeakRSS runs one main call in a fresh process of this program
// and returns that process's peak resident set in MB.
func childPeakRSS(w *workload, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(exe, "--rss-child", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10)).Output()
	if err != nil {
		return 0, fmt.Errorf("single-call process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// measure is the end-to-end run. It first measures peak memory in
// rssProcs single-call processes, then the closed loop repeats the slot
// pattern probe, main, one-worker (same seed as that main), main, main
// until the budget is spent and every sample floor is met.
func measure(w *workload, rec *record, seed uint64, budget time.Duration, workers int) error {
	// Warm-up probe, not recorded: loads code and sizes the heap.
	if err := w.probe(callSeed(seed, 0), workers); err != nil {
		return fmt.Errorf("warm-up probe: %w", err)
	}
	var mainS, oneS, setupS, pairEff, allocB, allocN, work, rss []float64
	start := time.Now()
	fail := func(what string, err error) {
		rec.Failed++
		if len(rec.Notes) < 10 {
			rec.Notes = append(rec.Notes, fmt.Sprintf("%s: %v", what, err))
		}
	}
	for k := 0; k < rssProcs; k++ {
		rec.Attempts++
		mb, err := childPeakRSS(w, callSeed(seed, k))
		if err != nil {
			fail("peak RSS", err)
			continue
		}
		rss = append(rss, mb)
	}
	var ms0, ms1 runtime.MemStats
	pattern := []string{"probe", "main", "one", "main", "main"}
	call, lastSeed, lastFP, lastS := 0, uint64(0), uint64(0), 0.0
	for slot := 0; ; slot++ {
		el := time.Since(start)
		if el > hardLimit || (el >= budget && len(mainS) >= minMain && len(oneS) >= minOne && len(setupS) >= minProbe) {
			break
		}
		rec.Attempts++
		switch kind := pattern[slot%len(pattern)]; kind {
		case "probe":
			dt, err := timed(func() error { return w.probe(callSeed(seed, call), workers) })
			if err != nil {
				fail("probe", err)
				continue
			}
			setupS = append(setupS, dt)
		case "main":
			lastSeed = callSeed(seed, call)
			call++
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			summary, err := w.call(lastSeed, workers)
			dt := time.Since(t0).Seconds()
			runtime.ReadMemStats(&ms1)
			var res result
			if err == nil {
				res, err = summary()
			}
			if err != nil {
				fail(fmt.Sprintf("call seed %d", lastSeed), err)
				lastFP, lastS = 0, 0
				continue
			}
			lastFP, lastS = res.fp, dt
			mainS = append(mainS, dt)
			allocB = append(allocB, float64(ms1.TotalAlloc-ms0.TotalAlloc))
			allocN = append(allocN, float64(ms1.Mallocs-ms0.Mallocs))
			work = append(work, res.work)
		case "one":
			res, dt, err := timedCall(w, lastSeed, 1)
			if err != nil {
				fail(fmt.Sprintf("1-worker call seed %d", lastSeed), err)
				continue
			}
			if res.fp != lastFP {
				fail(fmt.Sprintf("seed %d", lastSeed), fmt.Errorf("1-worker result fingerprint %x != %d-worker %x", res.fp, workers, lastFP))
				continue
			}
			oneS = append(oneS, dt)
			pairEff = append(pairEff, scalingEff(dt, lastS, workers))
		}
	}
	if len(mainS) < minMain || len(oneS) < 1 || len(setupS) < 1 || len(rss) < 1 {
		return fmt.Errorf("only %d main, %d single-worker, %d probe and %d memory samples in %v", len(mainS), len(oneS), len(setupS), len(rss), hardLimit)
	}
	rec.Raw["main_s"], rec.Raw["one_worker_s"], rec.Raw["setup_s"], rec.Raw["peak_rss_mb"] = mainS, oneS, setupS, rss
	rec.Samples["main_calls"] = len(mainS)
	rec.Samples["one_worker_calls"] = len(oneS)
	rec.Samples["setup_probes"] = len(setupS)
	p50, setup := median(mainS), median(setupS)
	tv, tpct, _ := tail(mainS)
	rec.Notes = append(rec.Notes, fmt.Sprintf("call_s.tail is p%.1f of %d main calls", tpct, len(mainS)))
	set := func(name string, v float64) { rec.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)} }
	set("setup_s", setup)
	set("call_s.p50", p50)
	set("call_s.tail", tv)
	set("balls_per_s", steadyRate(median(work), p50, setup))
	// Each one-worker call sits next to the main call of its seed, so
	// the per-pair ratio cancels slow drift in the machine's speed.
	set("scaling_eff", median(pairEff))
	set("alloc_mb_per_call", median(allocB)/1e6)
	set("allocs_per_call", median(allocN))
	set("peak_rss_mb", median(rss))
	return nonFinite(rec)
}

// traceRun is the per-layer run: it repeats a single-worker API call, a
// traced replay of the same seed and an untraced replay (spans off)
// until the budget is spent, checks every replay against the API call,
// and reports per-layer metrics as medians over the traced replays.
func traceRun(w *workload, rec *record, seed uint64, budget time.Duration, out string) error {
	tr := newTracer(true)
	quiet := newTracer(false)
	var oneS, tracedS, plainS, layerBusy, serial, imbalance []float64
	var selfs []map[string]float64 // per traced replay: span name -> self time
	perCount := map[string][]float64{}
	var model map[string]float64
	fail := func(what string, err error) {
		rec.Failed++
		if len(rec.Notes) < 10 {
			rec.Notes = append(rec.Notes, fmt.Sprintf("%s: %v", what, err))
		}
	}
	check := func(what string, want, got result) error {
		if w.exactReplay && got.fp != want.fp {
			return fmt.Errorf("%s: fingerprint %x, engine %x", what, got.fp, want.fp)
		}
		for k, v := range want.counts {
			if got.counts[k] != v {
				return fmt.Errorf("%s: %s = %d, engine %d", what, k, got.counts[k], v)
			}
		}
		return nil
	}
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if el > hardLimit || (el >= budget && len(tracedS) >= minReplay && len(plainS) >= minReplay) {
			break
		}
		s := callSeed(seed, i)
		rec.Attempts += 3
		want, dt, err := timedCall(w, s, 1)
		if err != nil {
			fail(fmt.Sprintf("1-worker call seed %d", s), err)
			rec.Failed += 2 // nothing to check the replays against
			continue
		}
		oneS = append(oneS, dt)
		model = want.model

		id := int32(i)
		tr.startCall(id)
		base := int32(len(tr.spans))
		var got result
		dt, err = timed(func() (err error) { got, err = w.replay(s, tr); return err })
		if err == nil {
			err = check("traced replay", want, got)
		}
		if err != nil {
			fail(fmt.Sprintf("seed %d", s), err)
		} else {
			tracedS = append(tracedS, dt)
			spans := tr.callSpans(id)
			self := selfTimes(spans, base)
			var busy float64
			for name, v := range self {
				if !strings.HasPrefix(name, "sim.") {
					busy += v
				}
			}
			selfs = append(selfs, self)
			for _, m := range perLayer {
				if m.unit == "count" && !strings.HasPrefix(m.name, "cluster.") {
					perCount[m.name] = append(perCount[m.name], float64(tr.counts[m.name]))
				}
			}
			layerBusy = append(layerBusy, busy)
			root := spans[0]
			serial = append(serial, 1-parallelTime(spans, base)/(float64(root.End-root.Start)/1e9))
			imbalance = append(imbalance, shardImbalance(spans, "protocol.place"))
		}

		dt, err = timed(func() (err error) { got, err = w.replay(s, quiet); return err })
		if err == nil {
			err = check("untraced replay", want, got)
		}
		if err != nil {
			fail(fmt.Sprintf("seed %d", s), err)
		} else {
			plainS = append(plainS, dt)
		}
	}
	if len(tracedS) == 0 || len(plainS) == 0 {
		return fmt.Errorf("no replay matched its engine call: %v", rec.Notes)
	}
	rec.Raw["one_worker_s"], rec.Raw["traced_s"], rec.Raw["untraced_s"] = oneS, tracedS, plainS
	rec.Samples["one_worker_calls"] = len(oneS)
	rec.Samples["traced_replays"] = len(tracedS)
	rec.Samples["untraced_replays"] = len(plainS)

	// selfOf is the median self time of one span name over the traced
	// replays, a replay without such a span counting as zero.
	selfOf := func(name string) float64 {
		vs := make([]float64, len(selfs))
		for j, self := range selfs {
			vs[j] = self[name]
		}
		return median(vs)
	}
	set := func(name string, v float64) { rec.Metrics[name] = metric{Value: v, Unit: unitOf(perLayer, name)} }
	for _, m := range perLayer {
		if layer, ok := strings.CutSuffix(m.name, "_s"); ok && !strings.HasPrefix(m.name, "sim.") {
			set(m.name, selfOf(layer))
		} else if vs, ok := perCount[m.name]; ok {
			set(m.name, median(vs))
		}
	}
	nsPerBall := 0.0
	if b := rec.Metrics["protocol.place_balls"].Value; b > 0 {
		nsPerBall = rec.Metrics["protocol.place_s"].Value / b * 1e9
	}
	set("protocol.ns_per_ball", nsPerBall)
	set("sim.self_s", median(oneS)-median(layerBusy))
	set("sim.serial_frac", median(serial))
	set("sim.shard_imbalance", median(imbalance))
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "cluster.") {
			set(m.name, model[m.name]) // zero outside cluster-serve
		}
	}
	set("trace.overhead_frac", median(tracedS)/median(plainS)-1)

	fmt.Printf("per-layer self time, median over %d traced replays (1-worker engine call %.4f s, untraced replay %.4f s):\n", len(tracedS), median(oneS), median(plainS))
	seen := map[string]bool{}
	for _, self := range selfs {
		for name := range self {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	total := median(tracedS)
	for _, name := range names {
		v := selfOf(name)
		fmt.Printf("  %-18s %10.6f s  %5.1f%%\n", name, v, 100*v/total)
	}
	if err := writeSpans(tr, rec, out); err != nil {
		return err
	}
	return nonFinite(rec)
}

func unitOf(specs []metricSpec, name string) string {
	for _, m := range specs {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// nonFinite rejects a record with a NaN or infinite metric: it cannot
// be encoded, and means a formula's precondition failed.
func nonFinite(rec *record) error {
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

func printMetrics(rec *record) {
	specs := endToEnd
	if rec.Trace == 1 {
		specs = perLayer
	}
	fmt.Printf("samples: %v\n", rec.Samples)
	for _, n := range rec.Notes {
		fmt.Println("note:", n)
	}
	for _, m := range specs {
		fmt.Printf("  %-24s %16.6g %s\n", m.name, rec.Metrics[m.name].Value, m.unit)
	}
	fmt.Printf("failed_frac: %d/%d\n", rec.Failed, rec.Attempts)
}

func runName(rec *record) string {
	return fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, rec.Trace)
}

func writeRecord(rec *record, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, runName(rec)+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	fmt.Println("record:", path)
	return nil
}

func writeSpans(tr *tracer, rec *record, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, runName(rec)+"-spans.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %s (%d spans)\n", path, len(tr.spans))
	return nil
}

// compareRecords prints old → new for every metric of two run records,
// refusing when their topologies differ: numbers taken on different
// CPU counts or toolchains are not comparable.
func compareRecords(oldPath, newPath string) error {
	load := func(p string) (*record, error) {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &r, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if a.Topology != b.Topology {
		return fmt.Errorf("refusing to compare: topology %+v vs %+v", a.Topology, b.Topology)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s/trace%d with %s/trace%d", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s trace=%d: %s -> %s\n", a.Workload, a.Trace, a.Commit, b.Commit)
	for _, n := range names {
		o, nw := a.Metrics[n].Value, b.Metrics[n].Value
		fmt.Printf("  %-24s %14.6g -> %14.6g  x%.4f\n", n, o, nw, nw/o)
	}
	return nil
}
