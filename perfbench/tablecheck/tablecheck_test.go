package tablecheck

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/textio"
)

func figure1(t *testing.T) (*textio.ProblemDoc, *textio.SolutionDoc) {
	t.Helper()
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Schedule(g, a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return textio.EncodeProblem(g, a, core.Options{}), textio.EncodeSolution(res)
}

func hasKind(fs []Finding, k Kind) bool {
	for _, f := range fs {
		if f.Kind == k {
			return true
		}
	}
	return false
}

// applicable returns the indices of the non-broadcast entries applying on
// label, keyed by row.
func applicable(t *testing.T, sol *textio.SolutionDoc, label string) map[string]int {
	t.Helper()
	l, err := parseCube(label)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, e := range sol.Table.Entries {
		w, err := parseCube(e.When)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Broadcast && w.impliedBy(l) {
			idx[e.Row] = i
		}
	}
	return idx
}

func TestCleanTables(t *testing.T) {
	p, sol := figure1(t)
	if fs := Check(p, sol); len(fs) != 0 {
		t.Fatalf("figure 1: %v", Error(fs))
	}
	r := rand.New(rand.NewSource(7))
	for _, size := range [][2]int{{60, 10}, {120, 18}} {
		inst, err := gen.Generate(gen.RandomConfig(r, size[0], size[1]))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Schedule(inst.Graph, inst.Arch, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fs := Check(textio.EncodeProblem(inst.Graph, inst.Arch, core.Options{}), textio.EncodeSolution(res)); len(fs) != 0 {
			t.Fatalf("%dx%d: %v", size[0], size[1], Error(fs))
		}
	}
}

func TestFlagsOverlap(t *testing.T) {
	p, sol := figure1(t)
	pe := map[string]string{}
	exec := map[string]int64{}
	for _, pr := range p.Processes {
		pe[pr.Name], exec[pr.Name] = pr.PE, pr.Exec
	}
	label := sol.Paths[0].Label
	idx := applicable(t, sol, label)
	// Move one process onto the start of another process of the same
	// processor that runs earlier on the same path.
	for a, ia := range idx {
		for b, ib := range idx {
			ea, eb := sol.Table.Entries[ia], sol.Table.Entries[ib]
			if a == b || pe[a] != "pe1" || pe[b] != "pe1" || exec[a] == 0 || exec[b] == 0 || ea.Start >= eb.Start {
				continue
			}
			sol.Table.Entries[ib].Start = ea.Start
			fs := Check(p, sol)
			if !hasKind(fs, KindOverlap) {
				t.Fatalf("moving %s onto %s on pe1: no overlap finding in %v", b, a, fs)
			}
			return
		}
	}
	t.Fatal("no pair of processes on pe1 to corrupt")
}

func TestFlagsPrecedence(t *testing.T) {
	p, sol := figure1(t)
	exec := map[string]int64{}
	for _, pr := range p.Processes {
		exec[pr.Name] = pr.Exec
	}
	label := sol.Paths[0].Label
	idx := applicable(t, sol, label)
	for _, ed := range p.Edges {
		ifrom, okF := idx[ed.From]
		ito, okT := idx[ed.To]
		if !okF || !okT || ed.Condition != "" || exec[ed.From] == 0 {
			continue
		}
		sol.Table.Entries[ito].Start = sol.Table.Entries[ifrom].Start
		fs := Check(p, sol)
		if !hasKind(fs, KindPrecedence) {
			t.Fatalf("starting %s with %s: no precedence finding in %v", ed.To, ed.From, fs)
		}
		return
	}
	t.Fatal("no edge to corrupt")
}

func TestFlagsDelays(t *testing.T) {
	p, sol := figure1(t)
	sol.Paths[0].TableDelay--
	if fs := Check(p, sol); !hasKind(fs, KindDelay) {
		t.Fatalf("table delay below the finish time: no delay finding in %v", fs)
	}
}

func TestFlagsDuplicateStart(t *testing.T) {
	p, sol := figure1(t)
	dup := sol.Table.Entries[0]
	dup.Start += 100
	sol.Table.Entries = append(sol.Table.Entries, dup)
	if fs := Check(p, sol); !hasKind(fs, KindDuplicate) {
		t.Fatalf("duplicated entry: no duplicate-start finding in %v", fs)
	}
}
