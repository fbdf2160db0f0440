// Package table implements the schedule table of the paper: one row per
// ordinary or communication process (plus one row per condition broadcast),
// one column per conjunction of condition values, and activation times in the
// cells. A simple non-preemptive run-time scheduler on every processing
// element reads the table and activates a process at the time found in the
// column whose expression matches the condition values it currently knows.
//
// The package offers placement with conflict detection (requirement 2 of
// section 3 of the paper), structural validation of requirements 1–3 (the
// per-path part optionally fanned over a worker pool) and a text rendering in
// the style of Table 1.
//
// Rows are addressed by the dense activity index of the graph (see
// sched.Index) and keep their entries sorted by (activation time,
// expression), so the merging algorithm's inner loop (deriveLocks, covered,
// Conflicts, Place) reads rows without copying or hashing. Rows hold few
// entries, so expressions are found by a scan.
package table

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/pool"
	"repro/internal/sched"
)

// Entry is one cell of the schedule table: the process (or broadcast) of its
// row is activated at time Start when the column expression Expr is true.
type Entry struct {
	Expr  cond.Cube
	Start int64
}

// Table is a schedule table under construction or completed. Mutating methods
// are not safe for concurrent use (the read-only validation fan-out is).
type Table struct {
	rows sched.Slots[[]Entry] // entries sorted by (Start, Expr), by activity
	keys []sched.Key          // insertion order of rows
	// cells is carved into the first rowCells cells of every new row, so
	// most rows never allocate on their own.
	cells []Entry
}

// rowCells is the capacity a new row takes from Table.cells; most rows hold
// one or two entries.
const rowCells = 2

// New returns an empty schedule table for the activities of index ix.
func New(ix sched.Index) *Table {
	t := &Table{cells: make([]Entry, rowCells*ix.Len())}
	t.rows.Reset(ix)
	return t
}

// Keys returns a copy of the row keys in insertion order.
func (t *Table) Keys() []sched.Key { return append([]sched.Key(nil), t.keys...) }

// KeysView returns the row keys in insertion order without copying. The
// returned slice is shared with the table and must not be modified.
func (t *Table) KeysView() []sched.Key { return t.keys }

// Row returns a copy of the entries of a row (possibly nil).
func (t *Table) Row(k sched.Key) []Entry { return append([]Entry(nil), t.RowView(k)...) }

// RowView returns the entries of a row sorted by (Start, Expr) without
// copying. The returned slice is shared with the table and must not be
// modified; it is invalidated by the next Place on the same row.
func (t *Table) RowView(k sched.Key) []Entry {
	r, _ := t.rows.Get(k)
	return r
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return len(t.keys) }

// NumEntries returns the total number of cells.
func (t *Table) NumEntries() int {
	n := 0
	for _, k := range t.keys {
		n += len(t.RowView(k))
	}
	return n
}

// Columns returns the distinct column expressions used anywhere in the table,
// ordered deterministically (fewer literals first, then lexicographically).
func (t *Table) Columns() []cond.Cube {
	seen := map[cond.Cube]struct{}{}
	var out []cond.Cube
	for _, k := range t.keys {
		for _, e := range t.RowView(k) {
			if _, ok := seen[e.Expr]; !ok {
				seen[e.Expr] = struct{}{}
				out = append(out, e.Expr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Len() != out[j].Len() {
			return out[i].Len() < out[j].Len()
		}
		return out[i].Compare(out[j]) < 0
	})
	return out
}

// Conflict describes a violation of requirement 2: two activation times of
// the same row whose column expressions can be true simultaneously.
type Conflict struct {
	Key      sched.Key
	New      Entry
	Existing Entry
}

// Error renders the conflict.
func (c Conflict) Error() string {
	return fmt.Sprintf("table: conflicting activation times for %s: %d under %s vs %d under %s",
		c.Key, c.New.Start, c.New.Expr, c.Existing.Start, c.Existing.Expr)
}

// Lookup returns the entry of row k with exactly the given expression.
func (t *Table) Lookup(k sched.Key, expr cond.Cube) (Entry, bool) {
	for _, e := range t.RowView(k) {
		if e.Expr == expr {
			return e, true
		}
	}
	return Entry{}, false
}

// Applicable returns the entries of row k whose expression is implied by the
// given (full) condition assignment; these are the entries the run-time
// scheduler would fire on that path.
func (t *Table) Applicable(k sched.Key, label cond.Cube) []Entry {
	return t.AppendApplicable(nil, k, label)
}

// AppendApplicable appends the applicable entries of row k to dst and returns
// it, letting callers that resolve many keys reuse one buffer.
func (t *Table) AppendApplicable(dst []Entry, k sched.Key, label cond.Cube) []Entry {
	for _, e := range t.RowView(k) {
		if label.Implies(e.Expr) {
			dst = append(dst, e)
		}
	}
	return dst
}

// Conflicts returns the existing entries of row k that conflict with placing
// an activation time start under expression expr: entries with a compatible
// expression but a different activation time (requirement 2).
func (t *Table) Conflicts(k sched.Key, expr cond.Cube, start int64) []Entry {
	var out []Entry
	for _, e := range t.RowView(k) {
		if e.Start != start && e.Expr.Compatible(expr) {
			out = append(out, e)
		}
	}
	return out
}

// Place records an activation time without checking for conflicts (callers
// resolve conflicts first, see the merging algorithm). Placing an entry that
// already exists with the same expression and time is a no-op; placing a
// different time under an identical expression replaces nothing and returns a
// Conflict error. A key outside the table's activity index is an error.
func (t *Table) Place(k sched.Key, expr cond.Cube, start int64) error {
	if t.rows.Index().Of(k) < 0 {
		return fmt.Errorf("table: %s outside the activity index", k)
	}
	if existing, ok := t.Lookup(k, expr); ok {
		if existing.Start == start {
			return nil
		}
		return Conflict{Key: k, New: Entry{Expr: expr, Start: start}, Existing: existing}
	}
	t.EnsureRow(k)
	r := t.RowView(k)
	// Insert keeping the row sorted by (Start, Expr).
	idx := sort.Search(len(r), func(i int) bool {
		if r[i].Start != start {
			return r[i].Start > start
		}
		return r[i].Expr.Compare(expr) >= 0
	})
	r = slices.Insert(r, idx, Entry{Expr: expr, Start: start})
	t.rows.Set(k, r)
	return nil
}

// EnsureRow creates an empty row for the key if it does not exist yet, so
// that rendering lists every process even when (unusually) it has no entry.
// It panics when the key lies outside the table's activity index.
func (t *Table) EnsureRow(k sched.Key) {
	if _, ok := t.rows.Get(k); !ok {
		t.rows.Set(k, t.cells[:0:rowCells])
		t.cells = t.cells[rowCells:]
		t.keys = append(t.keys, k)
	}
}

// Violation is one validation finding.
type Violation struct {
	Requirement int
	Key         sched.Key
	Detail      string
}

func (v Violation) String() string {
	return fmt.Sprintf("requirement %d violated for %s: %s", v.Requirement, v.Key, v.Detail)
}

// Validate checks the structural requirements 1–3 of section 3 of the paper
// against the graph and its alternative paths:
//
//  1. every column expression of a process row implies the process guard;
//  2. activation times are uniquely determined: two different activation
//     times of the same row never have compatible column expressions;
//  3. on every alternative path, every active process has at least one
//     applicable activation time (coverage), and all applicable activation
//     times agree.
//
// Requirement 4 (activation depends only on condition values known on the
// executing processing element at that moment) involves timing and is checked
// by the execution simulator in package sim.
func (t *Table) Validate(g *cpg.Graph, paths []*cpg.Path) []Violation {
	return t.ValidateParallel(g, paths, 1)
}

// ValidateParallel is Validate with the per-path coverage check (requirement
// 3) fanned out over a bounded worker pool. Violations are collected in path
// order, so the result is identical for every worker count (0 = GOMAXPROCS,
// 1 = sequential).
func (t *Table) ValidateParallel(g *cpg.Graph, paths []*cpg.Path, workers int) []Violation {
	var out []Violation
	// Requirement 1.
	for _, k := range t.keys {
		if k.IsCond {
			continue
		}
		guard := g.Guard(k.Proc)
		for _, e := range t.RowView(k) {
			if !guard.ImpliedByCube(e.Expr) {
				out = append(out, Violation{
					Requirement: 1,
					Key:         k,
					Detail:      fmt.Sprintf("column %s does not imply guard %s", e.Expr.Format(g.CondName), guard.Format(g.CondName)),
				})
			}
		}
	}
	// Requirement 2.
	for _, k := range t.keys {
		row := t.RowView(k)
		for i := 0; i < len(row); i++ {
			for j := i + 1; j < len(row); j++ {
				if row[i].Start != row[j].Start && row[i].Expr.Compatible(row[j].Expr) {
					out = append(out, Violation{
						Requirement: 2,
						Key:         k,
						Detail: fmt.Sprintf("times %d (%s) and %d (%s) are not mutually exclusive",
							row[i].Start, row[i].Expr.Format(g.CondName), row[j].Start, row[j].Expr.Format(g.CondName)),
					})
				}
			}
		}
	}
	// Requirement 3, one independent check per path.
	perPath := make([][]Violation, len(paths))
	pool.ForEachIndex(len(paths), workers, func(i int) {
		perPath[i] = t.validatePath(g, paths[i])
	})
	for _, v := range perPath {
		out = append(out, v...)
	}
	return out
}

// validatePath checks requirement 3 on one alternative path. It only reads
// the table, so concurrent calls are safe.
func (t *Table) validatePath(g *cpg.Graph, p *cpg.Path) []Violation {
	var out []Violation
	var app []Entry
	for _, k := range t.keys {
		var active bool
		if k.IsCond {
			def := g.Condition(k.Cond)
			active = def != nil && p.IsActive(def.Decider)
		} else {
			active = p.IsActive(k.Proc) && !g.Process(k.Proc).IsDummy()
		}
		if !active {
			continue
		}
		app = t.AppendApplicable(app[:0], k, p.Label)
		if len(app) == 0 {
			out = append(out, Violation{
				Requirement: 3,
				Key:         k,
				Detail:      fmt.Sprintf("no activation time applies on path %s", p.Label.Format(g.CondName)),
			})
			continue
		}
		first := app[0].Start
		for _, e := range app[1:] {
			if e.Start != first {
				out = append(out, Violation{
					Requirement: 3,
					Key:         k,
					Detail:      fmt.Sprintf("ambiguous activation times on path %s", p.Label.Format(g.CondName)),
				})
				break
			}
		}
	}
	return out
}

// RenderOptions controls the text rendering of a table.
type RenderOptions struct {
	// Namer translates condition identifiers to names; defaults to c<N>.
	Namer cond.Namer
	// RowName translates row keys to names; defaults to Key.String.
	RowName func(sched.Key) string
	// SkipEmptyRows drops rows without entries.
	SkipEmptyRows bool
}

// Render produces a fixed-width text table in the style of Table 1 of the
// paper: one column per expression, one row per process and per condition.
func (t *Table) Render(opt RenderOptions) string {
	name := opt.RowName
	if name == nil {
		name = func(k sched.Key) string { return k.String() }
	}
	cols := t.Columns()
	header := make([]string, 0, len(cols)+1)
	header = append(header, "process")
	for _, c := range cols {
		header = append(header, c.Format(opt.Namer))
	}
	rows := [][]string{header}
	for _, k := range t.keys {
		entries := t.RowView(k)
		if opt.SkipEmptyRows && len(entries) == 0 {
			continue
		}
		row := make([]string, len(cols)+1)
		row[0] = name(k)
		for i, c := range cols {
			for _, e := range entries {
				if e.Expr.Equal(c) {
					row[i+1] = fmt.Sprintf("%d", e.Start)
					break
				}
			}
		}
		rows = append(rows, row)
	}
	// Column widths.
	widths := make([]int, len(cols)+1)
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for ri, r := range rows {
		for i, cell := range r {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w
			}
			b.WriteString(strings.Repeat("-", total+3*len(cols)))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
