package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/sim"
	"repro/internal/textio"
)

// The cold-mix pool covers the paper's grid (60/80/120 nodes x 10..32
// paths) plus 250-node graphs, coldPerCell seeded problems per cell, so
// the mix of sizes is the same for every workload seed and only the
// generated instances differ.
var coldCells = func() [][2]int {
	var cells [][2]int
	for _, n := range []int{60, 80, 120, 250} {
		for _, p := range []int{10, 12, 18, 24, 32} {
			cells = append(cells, [2]int{n, p})
		}
	}
	return cells
}()

const coldPerCell = 20

// coldReplays caps the pool problems replayed standalone in a traced run.
const coldReplays = 200

type coldProblem struct {
	g *cpg.Graph
	a *arch.Architecture
}

// coldSummary is the deterministic outcome of one schedule call, cheap
// enough to compare on every call of the loop.
type coldSummary struct {
	deltaM, deltaMax                            int64
	paths, backsteps, locks, conflicts, entries int
	deterministic                               bool
	increase                                    float64
}

func summarize(r *core.Result) coldSummary {
	s := r.Stats
	return coldSummary{r.DeltaM, r.DeltaMax, s.Paths, s.BackSteps, s.Locks, s.Conflicts, s.Entries, r.Deterministic(), r.IncreasePercent()}
}

type coldRecord struct {
	idx int
	sum coldSummary
}

type coldMix struct {
	pool    []coldProblem
	next    int
	records []coldRecord
	// want holds the verified summary of each pool problem, computed once.
	want map[int]coldSummary
	out  outcomes // keyed by pool index
}

func setupColdMix(ctx context.Context, seed int64, _ time.Duration) (instance, error) {
	r := rand.New(rand.NewSource(seed))
	c := &coldMix{want: map[int]coldSummary{}}
	for _, cell := range coldCells {
		for k := 0; k < coldPerCell; k++ {
			inst, err := gen.Generate(gen.RandomConfig(r, cell[0], cell[1]))
			if err != nil {
				return nil, fmt.Errorf("generating %dx%d: %w", cell[0], cell[1], err)
			}
			c.pool = append(c.pool, coldProblem{inst.Graph, inst.Arch})
		}
	}
	r.Shuffle(len(c.pool), func(i, j int) { c.pool[i], c.pool[j] = c.pool[j], c.pool[i] })
	return c, nil
}

func (c *coldMix) sweepFleet() *fleet { return nil }

func (c *coldMix) cycle() int { return len(c.pool) }

func (c *coldMix) tally() *outcomes { return &c.out }

func (c *coldMix) close() {}

func (c *coldMix) drive(ctx context.Context, d time.Duration, minCalls int, tr *tracer) (*loopStats, error) {
	ls := &loopStats{}
	var pc phaseClock
	var phases core.PhaseFunc
	if tr != nil {
		phases = pc.observe
	}
	m0 := readMem()
	start := time.Now()
	ls.start = start
	for time.Since(start) < d || ls.attempted < minCalls {
		idx := c.next % len(c.pool)
		op := int64(c.next) + 1
		c.next++
		p := c.pool[idx]
		cctx, cancel := context.WithTimeout(ctx, requestTimeout)
		t0 := time.Now()
		res, err := core.SchedulePhased(cctx, p.g, p.a, core.Options{}, phases)
		t1 := time.Now()
		cancel()
		ls.attempted++
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			ls.failed++
			c.out.mark(strconv.Itoa(idx), 1, 1)
			continue
		}
		if tr != nil {
			tr.add(op, "core.SchedulePhased", "", t0, t1)
			tr.add(op, "listsched.fanout", "core.SchedulePhased", t0, pc.merge)
			tr.add(op, "core.merge", "core.SchedulePhased", pc.merge, pc.validate)
			tr.add(op, "core.validate", "core.SchedulePhased", pc.validate, t1)
		}
		ls.lat = append(ls.lat, float64(t1.Sub(t0))/1e6)
		ls.at = append(ls.at, t1.Sub(start))
		ls.done = append(ls.done, t1.Sub(start))
		failed := 0
		if !res.Deterministic() {
			failed = 1
		}
		ls.failed += failed
		c.out.mark(strconv.Itoa(idx), 1, failed)
		c.records = append(c.records, coldRecord{idx, summarize(res)})
	}
	ls.wall = time.Since(start)
	ls.mem = readMem().since(m0)
	return ls, nil
}

// verify schedules each pool problem the loop used once more, checks the
// solution with the independent checker, and requires every call of the
// loop to have produced the same deterministic outcome.
func (c *coldMix) verify(ctx context.Context) error {
	var idx []int
	for _, rec := range c.records {
		idx = append(idx, rec.idx)
	}
	if err := c.checkAll(ctx, idx); err != nil {
		return err
	}
	for _, rec := range c.records {
		if want := c.want[rec.idx]; rec.sum != want {
			return incorrect("pool problem %d: loop result %+v, recompute %+v", rec.idx, rec.sum, want)
		}
	}
	c.records = c.records[:0]
	return nil
}

// checkAll runs check on every listed pool problem not yet checked, on
// verifyWorkers goroutines.
func (c *coldMix) checkAll(ctx context.Context, idx []int) error {
	todo := map[int]bool{}
	for _, i := range idx {
		if _, ok := c.want[i]; !ok {
			todo[i] = true
		}
	}
	work := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < verifyWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				sum, err := c.check(ctx, i)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				c.want[i] = sum
				mu.Unlock()
			}
		}()
	}
	for i := range todo {
		work <- i
	}
	close(work)
	wg.Wait()
	return firstErr
}

func (c *coldMix) check(ctx context.Context, idx int) (coldSummary, error) {
	p := c.pool[idx]
	res, err := core.SchedulePhased(ctx, p.g, p.a, core.Options{}, nil)
	if err != nil {
		return coldSummary{}, err
	}
	var doc bytes.Buffer
	if err := textio.WriteProblem(&doc, textio.EncodeProblem(p.g, p.a, core.Options{})); err != nil {
		return coldSummary{}, err
	}
	if _, err := checkSolution(doc.Bytes(), textio.EncodeSolution(res)); err != nil {
		return coldSummary{}, fmt.Errorf("pool problem %d: %w", idx, err)
	}
	return summarize(res), nil
}

// phaseClock records when core.SchedulePhased enters its merge and
// validation phases; observe is its core.PhaseFunc.
type phaseClock struct{ merge, validate time.Time }

func (pc *phaseClock) observe(phase string, want int) int {
	switch phase {
	case core.PhaseMerge:
		pc.merge = time.Now()
	case core.PhaseValidate:
		pc.validate = time.Now()
	}
	return want
}

func (c *coldMix) layers(ctx context.Context, base, traced *loopStats, tr *tracer, m *metricSet) error {
	fan, merge, val := tr.durations("listsched.fanout"), tr.durations("core.merge"), tr.durations("core.validate")
	spans := func(d map[int64]float64) []float64 {
		out := make([]float64, 0, len(d))
		for _, v := range d {
			out = append(out, v)
		}
		return out
	}
	n := len(fan)
	fanMS, mergeMS, valMS := mean(spans(fan)), mean(spans(merge)), mean(spans(val))
	m.set("listsched.fanout_ms", fanMS, n)
	m.set("core.merge_ms", mergeMS, n)
	m.set("core.validate_ms", valMS, n)
	m.set("core.unaccounted_ms", mean(base.lat)-(fanMS+mergeMS+valMS), len(base.lat))

	// The deterministic counts and quality of the whole pool.
	all := make([]int, len(c.pool))
	for i := range all {
		all[i] = i
	}
	if err := c.checkAll(ctx, all); err != nil {
		return err
	}
	var paths, backsteps, locks, conflicts, entries int
	var incr []float64
	for i := range c.pool {
		s := c.want[i]
		paths += s.paths
		backsteps += s.backsteps
		locks += s.locks
		conflicts += s.conflicts
		entries += s.entries
		incr = append(incr, s.increase)
	}
	np := len(c.pool)
	m.set("cpg.paths", float64(paths), np)
	m.set("core.backsteps", float64(backsteps), np)
	m.set("core.locks", float64(locks), np)
	m.set("core.conflicts", float64(conflicts), np)
	m.set("table.entries", float64(entries), np)
	m.set("increase_pct_mean", mean(incr), np)

	// Standalone calls into table, sim and listsched on fresh results of
	// the first coldReplays pool problems.
	workers := runtime.GOMAXPROCS(0)
	var valT, simT, pathT []float64
	sc := listsched.NewScratch()
	for idx, p := range c.pool[:min(coldReplays, len(c.pool))] {
		res, err := core.SchedulePhased(ctx, p.g, p.a, core.Options{}, nil)
		if err != nil {
			return err
		}
		if summarize(res) != c.want[idx] {
			return incorrect("pool problem %d: replay differs from the loop", idx)
		}
		alt, err := p.g.AlternativePaths(0)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res.Table.ValidateParallel(p.g, alt, workers)
		valT = append(valT, float64(time.Since(t0))/1e6)
		t0 = time.Now()
		if _, err := sim.WorstCaseSubgraphs(p.a, res.Table, res.Subgraphs, workers); err != nil {
			return err
		}
		simT = append(simT, float64(time.Since(t0))/1e6)
		for _, sub := range res.Subgraphs {
			t0 = time.Now()
			if _, _, err := sc.Schedule(sub, p.a, listsched.Options{}); err != nil {
				return err
			}
			pathT = append(pathT, float64(time.Since(t0))/1e3)
		}
	}
	m.set("table.validate_ms", mean(valT), len(valT))
	m.set("sim.reenact_ms", mean(simT), len(simT))
	p50, n, err := percentile(pathT, 50)
	if err != nil {
		return err
	}
	m.set("listsched.path_us_p50", p50, n)
	return nil
}
