package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/distrib"
	"repro/internal/expr"
	"repro/internal/httpserver"
	"repro/internal/obs"
	"repro/internal/service"
)

// server is one in-process httpserver on a loopback listener, its routes
// wrapped in the benchmark's handler span.
type server struct {
	srv *httpserver.Server
	ts  *httptest.Server
	tr  atomic.Pointer[tracer]
}

func startServer(cfg service.Config, parentSpan string) (*server, error) {
	srv, err := httpserver.NewServer(httpserver.Options{Service: cfg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv}
	s.ts = httptest.NewUnstartedServer(traceHandler{next: srv.Routes(nil), tr: &s.tr, parent: parentSpan})
	s.ts.Listener.Close()
	s.ts.Listener = ln
	s.ts.Start()
	return s, nil
}

func (s *server) url() string { return s.ts.URL }

func (s *server) close() { s.ts.Close() }

// fleet is a sweep coordinator over two streaming HTTP backends whose
// services have one worker each, so the fleet's worker total is the
// benchmark host's two cores. Their memos are off: the workload repeats
// its sweeps, and a repeat must be computed again, never a memo hit.
type fleet struct {
	servers []*server
	client  *http.Client
	reg     *obs.Registry
	coord   *distrib.Coordinator
}

const fleetBackends = 2

func newFleet() (*fleet, error) {
	fl := &fleet{client: newClient(), reg: obs.NewRegistry()}
	var backends []distrib.Backend
	for i := 0; i < fleetBackends; i++ {
		s, err := startServer(service.Config{Workers: 1, CacheSize: -1}, "distrib.sweep")
		if err != nil {
			fl.close()
			return nil, err
		}
		fl.servers = append(fl.servers, s)
		backends = append(backends, distrib.HTTP{BaseURL: s.url(), Client: fl.client})
	}
	fl.coord = &distrib.Coordinator{
		Shards:       fleetBackends,
		Backends:     backends,
		ShardTimeout: time.Minute,
		Metrics:      distrib.NewMetrics(fl.reg),
	}
	return fl, nil
}

func (fl *fleet) setTracer(t *tracer) {
	for _, s := range fl.servers {
		s.tr.Store(t)
	}
}

func (fl *fleet) close() {
	for _, s := range fl.servers {
		s.close()
	}
	closeClient(fl.client)
}

// counter sums every series of a counter family on reg.
func counter(reg *obs.Registry, family string) (int64, error) {
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		return 0, err
	}
	var total int64
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, family)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}

// The sweep workload's iterations walk the paper's grid: iteration i runs
// the sweepGraphsPerCell graphs of two cells of one graph size, with a
// seed of its own, so the mix of sizes is the same for every workload
// seed. The loop repeats the sweepCycle sweeps of one pass; the backends
// keep no memo, so a repeat is computed again.
var (
	sweepNodes = []int{60, 80, 120}
	sweepPaths = []int{10, 12, 18, 24, 32}
)

const (
	sweepCycle         = 100
	sweepGraphsPerCell = 3
	sweepGraphs        = 2 * sweepGraphsPerCell
	// sweepQualitySweeps is the prefix of sweeps increase_pct_mean covers,
	// so it is the same for every run of one seed.
	sweepQualitySweeps = 30
	// sweepReplays is how many traced sweeps are replayed shard by shard.
	sweepReplays = 24
)

func sweepPlan(seed int64, i int) expr.SweepConfig {
	k := i / len(sweepNodes)
	return expr.SweepConfig{
		Nodes:         []int{sweepNodes[i%len(sweepNodes)]},
		Paths:         []int{sweepPaths[k%len(sweepPaths)], sweepPaths[(k+2)%len(sweepPaths)]},
		GraphsPerCell: sweepGraphsPerCell,
		Seed:          mix(seed, int64(i)),
		Workers:       1,
	}
}

// mix derives a non-negative seed from a workload seed and an index.
func mix(seed, i int64) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return int64(h >> 1)
}

type sweepRun struct {
	cfg   expr.SweepConfig
	cells []expr.Cell
	ms    float64
}

type sweepInst struct {
	seed    int64
	fl      *fleet
	next    int
	quality []float64 // increase of every graph of the first sweepQualitySweeps
	// checkQueue holds sweeps to recompute in-process at the next verify;
	// traced keeps the first sweepReplays sweeps of a traced loop.
	checkQueue []sweepRun
	traced     []sweepRun
	// counters are the coordinator's counter deltas over the traced loop.
	counters map[string]int64
	out      outcomes // keyed by sweep index
}

func setupSweep(ctx context.Context, seed int64, _ time.Duration) (instance, error) {
	fl, err := newFleet()
	if err != nil {
		return nil, err
	}
	// Warm the connections and the backends with one sweep per graph size,
	// outside the measured sequence (negative indices never recur).
	for i := range sweepNodes {
		cfg := sweepPlan(seed, i)
		cfg.Seed = mix(seed, int64(-1-i))
		if _, err := fl.coord.Run(ctx, cfg); err != nil {
			fl.close()
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
	}
	return &sweepInst{seed: seed, fl: fl}, nil
}

func (s *sweepInst) sweepFleet() *fleet { return s.fl }

func (s *sweepInst) close() { s.fl.close() }

func (s *sweepInst) cycle() int { return sweepCycle }

func (s *sweepInst) tally() *outcomes { return &s.out }

func (s *sweepInst) drive(ctx context.Context, d time.Duration, minCalls int, tr *tracer) (*loopStats, error) {
	s.fl.setTracer(tr)
	defer s.fl.setTracer(nil)
	s.traced = s.traced[:0]
	c0, err := s.fl.counters()
	if err != nil {
		return nil, err
	}
	ls := &loopStats{}
	m0 := readMem()
	start := time.Now()
	ls.start = start
	for time.Since(start) < d || len(ls.lat) < minCalls {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := s.next
		s.next++
		i := n % sweepCycle
		cfg := sweepPlan(s.seed, i)
		sctx, cancel := context.WithTimeout(withOp(ctx, int64(n)+1), time.Minute)
		t0 := time.Now()
		cells, err := s.fl.coord.Run(sctx, cfg)
		t1 := time.Now()
		cancel()
		ls.attempted += sweepGraphs
		if err != nil {
			ls.failed += sweepGraphs
			s.out.mark(strconv.Itoa(i), sweepGraphs, sweepGraphs)
			continue
		}
		tr.add(int64(n)+1, "distrib.sweep", "", t0, t1)
		ms := float64(t1.Sub(t0)) / 1e6
		ls.lat = append(ls.lat, ms)
		ls.at = append(ls.at, t1.Sub(start))
		graphs, violations := 0, 0
		for _, c := range cells {
			graphs += c.Graphs
			violations += c.Violations
			if n < sweepQualitySweeps {
				for g := 0; g < c.Graphs; g++ {
					s.quality = append(s.quality, c.AvgIncreasePct)
				}
			}
		}
		if graphs != sweepGraphs {
			return nil, incorrect("sweep %d: %d graphs, want %d", i, graphs, sweepGraphs)
		}
		if violations != 0 {
			note("defect: sweep seed %d: %d graph(s) with violations", cfg.Seed, violations)
		}
		ls.failed += violations
		s.out.mark(strconv.Itoa(i), sweepGraphs, violations)
		for g := 0; g < graphs; g++ {
			ls.done = append(ls.done, t1.Sub(start))
		}
		run := sweepRun{cfg, cells, ms}
		if len(s.checkQueue) < 3 {
			s.checkQueue = append(s.checkQueue, run)
		}
		if tr != nil && len(s.traced) < sweepReplays {
			s.traced = append(s.traced, run)
		}
	}
	ls.wall = time.Since(start)
	ls.mem = readMem().since(m0)
	c1, err := s.fl.counters()
	if err != nil {
		return nil, err
	}
	s.counters = map[string]int64{}
	for k, v := range c1 {
		s.counters[k] = v - c0[k]
	}
	return ls, nil
}

// verify recomputes the first sweeps of the last loop in this process and
// requires the coordinator's cells, times aside, to match.
func (s *sweepInst) verify(ctx context.Context) error {
	for _, run := range s.checkQueue {
		want, err := expr.RunSweep(run.cfg)
		if err != nil {
			return err
		}
		if err := sameCells(run.cells, want); err != nil {
			return incorrect("sweep seed %d: coordinator vs in-process: %v", run.cfg.Seed, err)
		}
	}
	s.checkQueue = s.checkQueue[:0]
	return nil
}

func sameCells(got, want []expr.Cell) error {
	got, want = expr.ZeroTimes(got), expr.ZeroTimes(want)
	if len(got) != len(want) {
		return fmt.Errorf("%d cells, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("cell %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func (s *sweepInst) layers(ctx context.Context, base, traced *loopStats, tr *tracer, m *metricSet) error {
	var shardMS, wallMS []float64
	for _, run := range s.traced {
		var shards []*expr.ShardResult
		for k := 0; k < fleetBackends; k++ {
			cfg := run.cfg
			cfg.ShardIndex, cfg.ShardCount = k, fleetBackends
			t0 := time.Now()
			sh, err := expr.RunSweepShardContext(ctx, cfg)
			if err != nil {
				return err
			}
			shardMS = append(shardMS, float64(time.Since(t0))/1e6)
			shards = append(shards, sh)
		}
		want, err := expr.MergeCells(run.cfg, shards)
		if err != nil {
			return err
		}
		if err := sameCells(run.cells, want); err != nil {
			return incorrect("sweep seed %d: coordinator vs standalone shards: %v", run.cfg.Seed, err)
		}
		wallMS = append(wallMS, run.ms)
	}
	m.set("expr.shard_ms", mean(shardMS), len(shardMS))
	m.set("distrib.parallel_eff", sum(shardMS)/(sum(wallMS)*fleetBackends), len(wallMS))
	for name, v := range s.counters {
		m.set(name, float64(v), 1)
	}
	needed := float64(sweepGraphs * len(traced.lat))
	m.set("distrib.graphs_needed", needed, len(traced.lat))
	if streamed := s.counters["distrib.graphs_streamed"]; streamed > 0 {
		m.set("distrib.useful_ratio", needed/float64(streamed), len(traced.lat))
	}
	m.set("increase_pct_mean", mean(s.quality), len(s.quality))
	return nil
}

// distribCounters maps per-layer metrics to the coordinator's counter
// families.
var distribCounters = [][2]string{
	{"distrib.attempts", "cpg_distrib_attempts_total"},
	{"distrib.retries", "cpg_distrib_retries_total"},
	{"distrib.steals", "cpg_distrib_steals_total"},
	{"distrib.graphs_streamed", "cpg_distrib_graphs_streamed_total"},
}

func (fl *fleet) counters() (map[string]int64, error) {
	out := map[string]int64{}
	for _, c := range distribCounters {
		v, err := counter(fl.reg, c[1])
		if err != nil {
			return nil, err
		}
		out[c[0]] = v
	}
	return out, nil
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
