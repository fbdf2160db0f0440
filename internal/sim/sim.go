// Package sim re-enacts the distributed run-time scheduler of the paper: for
// a given combination of condition values it reads the schedule table,
// activates every active process at the activation time found in the
// applicable column and checks that the execution is deterministic and
// feasible:
//
//   - every active process (and condition broadcast) has exactly one
//     applicable activation time (requirements 2 and 3);
//   - data dependencies are respected (a process starts only after all of its
//     active predecessors terminated);
//   - sequential resources (processors, buses, memories) never execute two
//     activities at the same time;
//   - requirement 4 holds: the column expression used to activate a process
//     only contains condition values that are known, at the activation time,
//     on the processing element executing it.
//
// The worst-case delay δmax of a schedule table is the largest completion
// time over all alternative paths. The per-path re-enactments are
// independent, so WorstCaseSubgraphs fans them out over a bounded worker
// pool and collects the traces in path order, reusing the active subgraphs
// already built during path scheduling.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/table"
)

// Violation describes one problem found while re-enacting a path.
type Violation struct {
	Path   cond.Cube
	Key    sched.Key
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("path %s, %s: %s", v.Path, v.Key, v.Reason)
}

// Trace is the re-enactment of one alternative path.
type Trace struct {
	Label cond.Cube
	// Delay is the completion time of the path (activation time of the
	// sink, i.e. the time the last active process terminates).
	Delay      int64
	Violations []Violation

	acts sched.Slots[span] // activated activities
}

// span is the activation interval of one activity.
type span struct{ start, end int64 }

// OK reports whether the trace is free of violations.
func (t *Trace) OK() bool { return len(t.Violations) == 0 }

// StartOf returns the activation time of k and whether k was activated.
func (t *Trace) StartOf(k sched.Key) (int64, bool) {
	s, ok := t.acts.Get(k)
	return s.start, ok
}

// EndOf returns the termination time of k and whether k was activated.
func (t *Trace) EndOf(k sched.Key) (int64, bool) {
	s, ok := t.acts.Get(k)
	return s.end, ok
}

// Each calls fn for every activated activity in index order (processes by
// identifier, then condition broadcasts).
func (t *Trace) Each(fn func(k sched.Key, start, end int64)) {
	t.acts.Each(func(k sched.Key, s span) { fn(k, s.start, s.end) })
}

// Run re-enacts the execution selected by the given path.
func Run(g *cpg.Graph, a *arch.Architecture, tbl *table.Table, path *cpg.Path) (*Trace, error) {
	if g == nil || a == nil || tbl == nil || path == nil {
		return nil, errors.New("sim: nil argument")
	}
	return RunSubgraph(g.Subgraph(path), a, tbl)
}

// RunSubgraph re-enacts the execution of one alternative path given its
// prebuilt active subgraph, avoiding the subgraph extraction that Run
// performs. It only reads the subgraph and the table, so concurrent calls
// are safe.
func RunSubgraph(sub *cpg.Subgraph, a *arch.Architecture, tbl *table.Table) (*Trace, error) {
	if sub == nil || a == nil || tbl == nil {
		return nil, errors.New("sim: nil argument")
	}
	g := sub.G
	label := sub.Label
	active := sub.ActiveProcs()
	tr := &Trace{Label: label}
	tr.acts.Reset(sched.IndexOf(g))

	addViolation := func(k sched.Key, format string, args ...interface{}) {
		tr.Violations = append(tr.Violations, Violation{Path: label, Key: k, Reason: fmt.Sprintf(format, args...)})
	}

	// Resolve the activation time of a key from the table; app is a shared
	// scratch buffer for the applicable entries.
	var app []table.Entry
	resolve := func(k sched.Key) (int64, cond.Cube, bool) {
		app = tbl.AppendApplicable(app[:0], k, label)
		if len(app) == 0 {
			addViolation(k, "no applicable activation time (requirement 3)")
			return 0, cond.True(), false
		}
		first := app[0]
		for _, e := range app[1:] {
			if e.Start != first.Start {
				addViolation(k, "ambiguous activation times %d and %d (requirement 2)", first.Start, e.Start)
			}
		}
		// Use the most specific applicable expression for the knowledge
		// check (the run-time scheduler fires as soon as any applicable
		// column is known true; they all agree on the time).
		best := first
		for _, e := range app {
			if e.Expr.Len() > best.Expr.Len() {
				best = e
			}
		}
		return first.Start, best.Expr, true
	}

	// Activate processes.
	for _, p := range active {
		proc := g.Process(p)
		if proc.IsDummy() {
			continue
		}
		k := sched.ProcKey(p)
		start, expr, ok := resolve(k)
		if !ok {
			continue
		}
		tr.acts.Set(k, span{start, start + a.EffectiveExec(proc.Exec, proc.PE)})
		_ = expr
	}
	// Activate condition broadcasts (when present in the table). The ends of
	// the deciders and broadcasts are kept by condition identifier (0 when
	// missing); without a broadcast a value is known everywhere at the end
	// of its decider.
	var deciderEnd, broadcastEnd [cond.MaxConds]int64
	for _, c := range sub.DecidedConds() {
		def := g.Condition(c)
		deciderEnd[c], _ = tr.EndOf(sched.ProcKey(def.Decider))
		broadcastEnd[c] = deciderEnd[c]
		k := sched.CondKey(c)
		if len(tbl.RowView(k)) == 0 {
			// Single-processor systems do not broadcast.
			continue
		}
		start, _, ok := resolve(k)
		if !ok {
			continue
		}
		tr.acts.Set(k, span{start, start + a.CondTime})
		broadcastEnd[c] = start + a.CondTime
		if start < deciderEnd[c] {
			addViolation(k, "broadcast starts at %d before the disjunction process terminates at %d", start, deciderEnd[c])
		}
	}

	// knownAt reports when condition c becomes known on processing element pe.
	knownAt := func(c cond.Cond, pe arch.PEID) int64 {
		def := g.Condition(c)
		if def != nil && pe != arch.NoPE && g.Process(def.Decider).PE == pe {
			return deciderEnd[c]
		}
		return broadcastEnd[c]
	}

	// Dependency and requirement-4 checks.
	for _, p := range active {
		proc := g.Process(p)
		if proc.IsDummy() {
			continue
		}
		k := sched.ProcKey(p)
		start, ok := tr.StartOf(k)
		if !ok {
			continue
		}
		for _, q := range sub.Preds(p) {
			if g.Process(q).IsDummy() {
				continue
			}
			qEnd, ok := tr.EndOf(sched.ProcKey(q))
			if !ok {
				continue
			}
			if start < qEnd {
				addViolation(k, "starts at %d before predecessor %s terminates at %d", start, g.Process(q).Name, qEnd)
			}
		}
		// Requirement 4: every condition of the applicable column must be
		// known on the executing processing element at the start time.
		app = tbl.AppendApplicable(app[:0], k, label)
		if len(app) > 0 {
			expr := app[0].Expr
			for _, e := range app {
				if e.Expr.Len() > expr.Len() {
					expr = e.Expr
				}
			}
			for m := expr.Mask(); m != 0; m &= m - 1 {
				x := cond.Cond(bits.TrailingZeros64(m))
				if at := knownAt(x, proc.PE); start < at {
					addViolation(k, "activation at %d uses condition %s which is known on %s only at %d (requirement 4)",
						start, g.CondName(x), peName(a, proc.PE), at)
				}
			}
		}
	}

	// Resource exclusivity on sequential processing elements, checked in
	// PEID order so the violations come out in a fixed order.
	type slot struct {
		key        sched.Key
		pe         arch.PEID
		start, end int64
	}
	decided := sub.DecidedConds()
	slots := make([]slot, 0, len(active)+len(decided))
	addSlot := func(k sched.Key, pe arch.PEID) {
		if pe == arch.NoPE || !a.IsSequential(pe) {
			return
		}
		s, ok := tr.acts.Get(k)
		if !ok || s.start == s.end {
			return
		}
		slots = append(slots, slot{key: k, pe: pe, start: s.start, end: s.end})
	}
	for _, p := range active {
		if g.Process(p).IsDummy() {
			continue
		}
		addSlot(sched.ProcKey(p), g.Process(p).PE)
	}
	// The bus carrying the broadcast is recorded in the path schedule, not
	// in the table; for the simulation we only check that the broadcasts on
	// the (single) broadcast bus set do not overlap when exactly one
	// all-connecting bus exists.
	if buses := a.BroadcastBuses(); len(buses) == 1 {
		for _, c := range decided {
			addSlot(sched.CondKey(c), buses[0])
		}
	}
	onPE := make([]slot, 0, len(slots))
	for pe := arch.PEID(0); int(pe) < a.NumPEs(); pe++ {
		onPE = onPE[:0]
		for _, s := range slots {
			if s.pe == pe {
				onPE = append(onPE, s)
			}
		}
		if len(onPE) < 2 {
			continue
		}
		slices.SortFunc(onPE, func(x, y slot) int { return cmp.Compare(x.start, y.start) })
		for i := 1; i < len(onPE); i++ {
			if onPE[i-1].end > onPE[i].start {
				addViolation(onPE[i].key, "overlaps %s on sequential element %s", onPE[i-1].key, peName(a, pe))
			}
		}
	}

	// Delay: completion time of the last active process.
	for _, p := range active {
		if g.Process(p).IsDummy() {
			continue
		}
		if e, ok := tr.EndOf(sched.ProcKey(p)); ok && e > tr.Delay {
			tr.Delay = e
		}
	}
	return tr, nil
}

func peName(a *arch.Architecture, id arch.PEID) string {
	if pe := a.PE(id); pe != nil {
		return pe.Name
	}
	return fmt.Sprintf("pe(%d)", int(id))
}

// Result aggregates the re-enactment of every alternative path.
type Result struct {
	Traces []*Trace
	// DeltaMax is the worst-case delay over all paths.
	DeltaMax int64
	// Violations collects the violations of all traces.
	Violations []Violation
}

// OK reports whether no path produced a violation.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// WorstCase re-enacts every alternative path sequentially and returns the
// worst-case delay together with the per-path traces.
func WorstCase(g *cpg.Graph, a *arch.Architecture, tbl *table.Table, paths []*cpg.Path) (*Result, error) {
	subs := make([]*cpg.Subgraph, len(paths))
	for i, p := range paths {
		subs[i] = g.Subgraph(p)
	}
	return WorstCaseSubgraphs(a, tbl, subs, 1)
}

// WorstCaseSubgraphs re-enacts every alternative path, given the prebuilt
// active subgraphs, over a bounded worker pool (0 = GOMAXPROCS, 1 =
// sequential). Traces, the worst-case delay and the violations are collected
// in path order, so the result is identical for every worker count.
func WorstCaseSubgraphs(a *arch.Architecture, tbl *table.Table, subs []*cpg.Subgraph, workers int) (*Result, error) {
	traces := make([]*Trace, len(subs))
	errs := make([]error, len(subs))
	pool.ForEachIndex(len(subs), workers, func(i int) {
		traces[i], errs[i] = RunSubgraph(subs[i], a, tbl)
	})
	res := &Result{Traces: traces}
	for i, tr := range traces {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if tr.Delay > res.DeltaMax {
			res.DeltaMax = tr.Delay
		}
		res.Violations = append(res.Violations, tr.Violations...)
	}
	return res, nil
}
