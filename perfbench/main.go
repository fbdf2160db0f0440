// Command perfbench is the repository's end-to-end benchmark. It generates
// every input from --seed, drives one named workload through the public
// entry points of core, service, httpserver and distrib for --seconds,
// checks that every output is correct, and prints the metrics; the last
// line of standard output is one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 they are the per-layer ones: half of the time runs untraced
// (the base of trace.overhead_pct and of the allocation counts), half runs
// with spans recorded around every call into a layer, followed by standalone
// replays of the traced calls. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, and the last instance is the one measured.
const setupRuns = 5

// runDeadline bounds a whole run, so a hang ends as a failed run instead of
// a stalled one.
const runDeadline = 170 * time.Second

// minE2ECalls is the least number of calls an end-to-end loop makes, so
// call_ms_p95 has at least minBeyond samples beyond it.
const minE2ECalls = 20 * minBeyond

// minTraceCalls is the least number of calls of each half of a traced run.
const minTraceCalls = 4 * minBeyond

// warmup is the untimed stretch of the closed loop run before any timed
// loop, so connections, caches and the heap are in their steady state.
const warmup = 2 * time.Second

type workload struct {
	name, why string
	setup     func(ctx context.Context, seed int64, d time.Duration) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// drive runs the closed loop for at least d and minCalls calls,
	// recording spans into tr when it is non-nil.
	drive(ctx context.Context, d time.Duration, minCalls int, tr *tracer) (*loopStats, error)
	// cycle is the number of consecutive calls that use every input of
	// the instance at least once.
	cycle() int
	// tally holds the outcome of every distinct input used so far.
	tally() *outcomes
	// verify checks every output produced since the previous verify.
	verify(ctx context.Context) error
	// layers fills the per-layer metrics of the traced loop.
	layers(ctx context.Context, base, traced *loopStats, tr *tracer, m *metricSet) error
	// sweepFleet is the workload's own sweep fleet, or nil.
	sweepFleet() *fleet
	close()
}

// loopStats is what one closed loop measured.
type loopStats struct {
	start     time.Time
	lat       []float64       // per-call latency, ms
	at        []time.Duration // completion offset of every call
	done      []time.Duration // completion offset of every problem solved or served
	attempted int             // calls made
	failed    int             // calls that failed
	wall      time.Duration
	mem       memSnap // allocation counters spent by the loop
}

// rateWindow is the length of the equal windows an end-to-end loop is cut
// into. A window holds a hundred calls or more, so the mix of inputs in it
// varies little.
const rateWindow = 3 * time.Second

// window is one stretch of a loop: the problems completed in it, the
// latencies of the calls that ended in it and the steal time it suffered.
type window struct {
	secs     float64
	problems int
	lat      []float64
	steal    uint64
}

// windows cuts the loop into rateWindow-long windows, charging each the
// steal sl logged over it (none when sl is nil).
func (ls *loopStats) windows(sl *stealLog) []window {
	n := max(1, int(ls.wall/rateWindow))
	w := ls.wall / time.Duration(n)
	ws := make([]window, n)
	of := func(t time.Duration) *window { return &ws[min(int(t/w), n-1)] }
	for _, t := range ls.done {
		of(t).problems++
	}
	for i, t := range ls.at {
		of(t).lat = append(of(t).lat, ls.lat[i])
	}
	for i := range ws {
		ws[i].secs = w.Seconds()
		if sl != nil {
			from := ls.start.Add(time.Duration(i) * w)
			ws[i].steal = sl.upTo(from.Add(w)) - sl.upTo(from)
		}
	}
	return ws
}

// quiet keeps the windows in which the host stole the least CPU time from
// the benchmark: windows in order of increasing steal until at least half
// of them, holding at least minCalls calls, are in, and every window whose
// steal ties with the last one taken. Steal comes in bursts that last
// seconds to minutes and slows every call they overlap, whatever the
// program does; the quiet half of a run measures the program, and a run
// without steal is measured whole.
func quiet(ws []window, minCalls int) []window {
	order := make([]int, len(ws))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ws[order[a]].steal < ws[order[b]].steal })
	var kept []window
	calls := 0
	for k, i := range order {
		if 2*k >= len(ws) && calls >= minCalls && ws[i].steal > ws[order[k-1]].steal {
			break
		}
		kept, calls = append(kept, ws[i]), calls+len(ws[i].lat)
	}
	return kept
}

// rate is the median over the windows of the problems completed per second.
func rate(ws []window) float64 {
	rates := make([]float64, len(ws))
	for i, w := range ws {
		rates[i] = float64(w.problems) / w.secs
	}
	return median(rates)
}

// latencies pools the call latencies of the windows.
func latencies(ws []window) []float64 {
	var lat []float64
	for _, w := range ws {
		lat = append(lat, w.lat...)
	}
	return lat
}

// outcomes records for every distinct input a run used — a pool problem,
// a document, a sweep — how many problems it holds and how many of them
// failed on any call. The result line's attempted and failed count these
// problems, so they depend on the seed alone: every run uses every input
// (its loops make at least cycle calls), and a longer run repeats inputs
// instead of adding new ones.
type outcomes struct {
	mu     sync.Mutex
	inputs map[string][2]int // key -> {problems, failed problems}
}

// mark records one call on input key holding problems problems, failed of
// which failed.
func (o *outcomes) mark(key string, problems, failed int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.inputs == nil {
		o.inputs = map[string][2]int{}
	}
	cur := o.inputs[key]
	o.inputs[key] = [2]int{problems, max(cur[1], failed)}
}

func (o *outcomes) totals() (attempted, failed int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, v := range o.inputs {
		attempted += v[0]
		failed += v[1]
	}
	return attempted, failed
}

var workloads = []workload{
	{"cold-mix", "distinct problems through core.SchedulePhased: path fan-out, merge and validation, no serving layers", setupColdMix},
	{"http-edit", "tabu designs edited, repeated and replaced over POST /v1/schedule: memo inserts, evictions and warm starts", setupHTTPEdit},
	{"sweep", "a Fig. 5/6 sweep through a distrib.Coordinator over two streaming httpserver backends", setupSweep},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	root := fs.String("root", ".", "checkout root (holds testdata/)")
	spans := fs.String("spans-dir", "perfbench/out", "directory for traced runs' span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, ","))
		return 2
	}
	testdata = filepath.Join(*root, "testdata")
	notes.w = stdout

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d: %s\n", wl.name, *seed, *seconds, *traceFlag, wl.why)
	fmt.Fprintf(stdout, "# env GOMAXPROCS=%d nproc=%d cpu=%q go=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := measure(ctx, wl, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *spans, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		if res == nil || !errors.Is(err, errIncorrect) {
			return 1
		}
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// errIncorrect marks a failed correctness check: the run still prints its
// result (with correct=false) and exits non-zero.
var errIncorrect = errors.New("incorrect output")

func incorrect(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errIncorrect, fmt.Sprintf(format, args...))
}

func measure(ctx context.Context, wl *workload, seed int64, d time.Duration, traced bool, spansDir string, out io.Writer) (*result, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRuns; i++ {
		// Collect the previous instance's garbage first, so each set-up
		// pays only for its own work.
		runtime.GC()
		t0 := time.Now()
		in, err := wl.setup(ctx, seed, d)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			in.close()
		} else {
			inst = in
		}
	}
	defer inst.close()

	if err := runGate(ctx, inst.sweepFleet()); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}

	m := &metricSet{}
	res := &result{Correct: true, metrics: m}
	var calls, failedCalls int
	check := func(ls *loopStats) error {
		calls += ls.attempted
		failedCalls += ls.failed
		res.Attempted, res.Failed = inst.tally().totals()
		if err := inst.verify(ctx); err != nil {
			res.Correct = false
			return err
		}
		return nil
	}
	defer func() {
		fmt.Fprintf(out, "# calls %d, failed %d; problems %d, failed %d\n", calls, failedCalls, res.Attempted, res.Failed)
	}()

	runtime.GC()
	wl0, err := inst.drive(ctx, warmup, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := check(wl0); err != nil {
		return res, err
	}
	minCalls := inst.cycle()

	if !traced {
		sl := startStealLog()
		ls, err := inst.drive(ctx, d, max(2*minE2ECalls, minCalls), nil)
		sl.stop()
		if err != nil {
			return nil, err
		}
		if err := check(ls); err != nil {
			return res, err
		}
		ws := ls.windows(sl)
		kept := quiet(ws, minE2ECalls)
		steal := make([]uint64, len(ws))
		for i, w := range ws {
			steal[i] = w.steal
		}
		fmt.Fprintf(out, "# %d windows of %.2fs, steal ticks %v; the %d quietest are measured\n", len(ws), ws[0].secs, steal, len(kept))
		lat := latencies(kept)
		p50, n, err := percentile(lat, 50)
		if err != nil {
			return nil, err
		}
		p95, _, err := percentile(lat, 95)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m.add("setup_s", "s", median(setups), len(setups))
		m.add("problems_per_s", "1/s", rate(kept), len(kept))
		m.add("call_ms_p50", "ms", p50, n)
		m.add("call_ms_p95", "ms", p95, n)
		m.add("peak_rss_mb", "MB", rss, 1)
		return res, nil
	}

	base, err := inst.drive(ctx, d/2, max(minTraceCalls, minCalls), nil)
	if err != nil {
		return nil, err
	}
	if err := check(base); err != nil {
		return res, err
	}
	tr := newTracer()
	tl, err := inst.drive(ctx, d-d/2, minTraceCalls, tr)
	if err != nil {
		return nil, err
	}
	if err := check(tl); err != nil {
		return res, err
	}
	m.defaults()
	if err := inst.layers(ctx, base, tl, tr, m); err != nil {
		if errors.Is(err, errIncorrect) {
			res.Correct = false
			return res, err
		}
		return nil, err
	}
	ops := float64(len(base.lat))
	m.set("go.mallocs_per_op", float64(base.mem.mallocs)/ops, len(base.lat))
	m.set("go.alloc_kb_per_op", float64(base.mem.bytes)/1024/ops, len(base.lat))
	bp50, _, err := percentile(base.lat, 50)
	if err != nil {
		return nil, err
	}
	tp50, _, err := percentile(tl.lat, 50)
	if err != nil {
		return nil, err
	}
	m.set("trace.overhead_pct", 100*(tp50-bp50)/bp50, len(tl.lat))
	m.set("trace.call_ms_mean", mean(tl.lat), len(tl.lat))
	path, err := tr.write(spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "# spans %d written to %s\n", len(tr.spans), path)
	return res, nil
}

// metricSet is an ordered set of named metrics with their sample counts.
type metricSet struct {
	names  []string
	byName map[string]*metric
}

type metric struct {
	value float64
	unit  string
	n     int
}

func (m *metricSet) add(name, unit string, v float64, n int) {
	if m.byName == nil {
		m.byName = map[string]*metric{}
	}
	if _, dup := m.byName[name]; !dup {
		m.names = append(m.names, name)
	}
	m.byName[name] = &metric{v, unit, n}
}

// set updates a metric declared by defaults.
func (m *metricSet) set(name string, v float64, n int) {
	mt, ok := m.byName[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	mt.value, mt.n = v, n
}

// defaults declares every per-layer metric with value 0 and no samples:
// a layer a workload does not exercise (or does not measure) reports 0.
func (m *metricSet) defaults() {
	for _, l := range layerMetrics {
		m.add(l[0], l[1], 0, 0)
	}
}

// layerMetrics lists every per-layer metric name and unit, in print order.
var layerMetrics = [][2]string{
	{"listsched.fanout_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.validate_ms", "ms"},
	{"core.unaccounted_ms", "ms"},
	{"table.validate_ms", "ms"},
	{"sim.reenact_ms", "ms"},
	{"listsched.path_us_p50", "us"},
	{"cpg.paths", "count"},
	{"core.backsteps", "count"},
	{"core.locks", "count"},
	{"core.conflicts", "count"},
	{"table.entries", "count"},
	{"httpserver.handler_ms", "ms"},
	{"client.transport_ms", "ms"},
	{"textio.read_problem_ms", "ms"},
	{"textio.decode_problem_ms", "ms"},
	{"service.hit_ms", "ms"},
	{"service.warm_ms", "ms"},
	{"service.cold_ms", "ms"},
	{"textio.encode_solution_ms", "ms"},
	{"textio.write_solution_ms", "ms"},
	{"textio.response_kb", "KiB"},
	{"httpserver.overhead_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.requests", "count"},
	{"service.warm_ratio", "ratio"},
	{"service.tau_edits", "count"},
	{"service.cache_len", "count"},
	{"httpserver.shed_total", "count"},
	{"expr.shard_ms", "ms"},
	{"distrib.parallel_eff", "ratio"},
	{"distrib.attempts", "count"},
	{"distrib.retries", "count"},
	{"distrib.steals", "count"},
	{"distrib.graphs_streamed", "count"},
	{"distrib.graphs_needed", "count"},
	{"distrib.useful_ratio", "ratio"},
	{"increase_pct_mean", "%"},
	{"go.mallocs_per_op", "count"},
	{"go.alloc_kb_per_op", "KiB"},
	{"trace.call_ms_mean", "ms"},
	{"trace.overhead_pct", "%"},
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	metrics   *metricSet
}

func (r *result) print(w io.Writer) error {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		*result
		Metrics map[string]jm `json:"metrics"`
	}{r, map[string]jm{}}
	for _, name := range r.metrics.names {
		mt := r.metrics.byName[name]
		if math.IsNaN(mt.value) || math.IsInf(mt.value, 0) {
			return fmt.Errorf("metric %s is %v", name, mt.value)
		}
		fmt.Fprintf(w, "# metric %-28s %14.6f %-6s n=%d\n", name, mt.value, mt.unit, mt.n)
		out.Metrics[name] = jm{mt.value, mt.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
