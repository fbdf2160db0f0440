// Package tablecheck verifies a schedule table against its problem document
// without using the scheduler's own code: it reads only the v1 problem and
// solution documents, so a defect shared by the scheduler and its validator
// cannot hide from it.
//
// An entry applies on an alternative path when its column expression is
// implied by the path label. On every path the checker requires:
//
//   - each row has at most one applicable start;
//   - on sequential processing elements (processors and buses; hardware runs
//     its processes in parallel, and broadcast rows are skipped) the intervals
//     [start, start+ceil(exec/speed)) of the applicable processes are disjoint;
//   - for every edge whose endpoints both apply and whose condition is
//     compatible with the label, start(to) >= start(from)+ceil(exec(from)/speed);
//
// that tableDelay equals the latest finish of the path's applicable processes;
// and over all paths δM = max optimalDelay, δmax = max tableDelay and
// δmax >= δM.
//
// The per-path "optimal" delays come from a list-scheduling heuristic, so a
// path's table delay may legitimately fall below its own optimalDelay; only
// the path fixing δM is guaranteed to keep its schedule, hence δmax >= δM.
package tablecheck

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/textio"
)

// Kind classifies a finding.
type Kind string

// Finding kinds.
const (
	KindDuplicate  Kind = "duplicate-start"
	KindOverlap    Kind = "overlap"
	KindPrecedence Kind = "precedence"
	KindDelay      Kind = "delay"
	KindModel      Kind = "model"
)

// Finding is one violated requirement.
type Finding struct {
	Kind Kind
	Path string
	Msg  string
}

func (f Finding) String() string {
	if f.Path == "" {
		return fmt.Sprintf("%s: %s", f.Kind, f.Msg)
	}
	return fmt.Sprintf("%s on path %s: %s", f.Kind, f.Path, f.Msg)
}

// Error joins findings into one error (nil when there are none).
func Error(fs []Finding) error {
	if len(fs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tablecheck: %d finding(s)", len(fs))
	for i, f := range fs {
		if i == 5 {
			fmt.Fprintf(&b, "; ...")
			break
		}
		fmt.Fprintf(&b, "; %s", f)
	}
	return fmt.Errorf("%s", b.String())
}

// cube is a conjunction of condition literals: condition name -> value.
type cube map[string]bool

func parseCube(s string) (cube, error) {
	c := cube{}
	if s == "true" || s == "" {
		return c, nil
	}
	for _, lit := range strings.Split(s, "&") {
		v := true
		if strings.HasPrefix(lit, "!") {
			v, lit = false, lit[1:]
		}
		if lit == "" {
			return nil, fmt.Errorf("malformed condition expression %q", s)
		}
		if old, dup := c[lit]; dup && old != v {
			return nil, fmt.Errorf("contradictory condition expression %q", s)
		}
		c[lit] = v
	}
	return c, nil
}

// impliedBy reports whether every literal of c appears in label.
func (c cube) impliedBy(label cube) bool {
	for k, v := range c {
		if lv, ok := label[k]; !ok || lv != v {
			return false
		}
	}
	return true
}

type proc struct {
	dur        int64
	pe         string
	sequential bool
}

// Check verifies sol's table and path delays against the problem p.
func Check(p *textio.ProblemDoc, sol *textio.SolutionDoc) []Finding {
	var fs []Finding
	model := func(format string, args ...any) []Finding {
		return append(fs, Finding{Kind: KindModel, Msg: fmt.Sprintf(format, args...)})
	}
	if sol.Table == nil {
		return model("solution has no table")
	}
	if len(sol.Paths) == 0 {
		return model("solution lists no paths")
	}
	type peInfo struct {
		speed      float64
		sequential bool
	}
	pes := make(map[string]peInfo, len(p.Elements))
	for _, e := range p.Elements {
		pes[e.Name] = peInfo{speed: e.Speed, sequential: e.Kind == "processor" || e.Kind == "bus"}
	}
	procs := make(map[string]proc, len(p.Processes))
	for _, pr := range p.Processes {
		info, ok := pes[pr.PE]
		if pr.PE != "" && !ok {
			return model("process %s mapped to unknown element %q", pr.Name, pr.PE)
		}
		procs[pr.Name] = proc{dur: duration(pr.Exec, info.speed), pe: pr.PE, sequential: ok && info.sequential}
	}

	type entry struct {
		row       string
		broadcast bool
		when      cube
		start     int64
	}
	entries := make([]entry, 0, len(sol.Table.Entries))
	for _, e := range sol.Table.Entries {
		w, err := parseCube(e.When)
		if err != nil {
			return model("row %s: %v", e.Row, err)
		}
		if !e.Broadcast {
			if _, ok := procs[e.Row]; !ok {
				return model("row %s names no process of the problem", e.Row)
			}
		}
		entries = append(entries, entry{row: e.Row, broadcast: e.Broadcast, when: w, start: e.Start})
	}

	var deltaM, deltaMax int64
	for _, path := range sol.Paths {
		if path.OptimalDelay > deltaM {
			deltaM = path.OptimalDelay
		}
		if path.TableDelay > deltaMax {
			deltaMax = path.TableDelay
		}
		label, err := parseCube(path.Label)
		if err != nil {
			return model("path label: %v", err)
		}

		start := map[string]int64{}
		seen := map[string]int{}
		for _, e := range entries {
			if !e.when.impliedBy(label) {
				continue
			}
			key := e.row
			if e.broadcast {
				key = "broadcast:" + e.row
			}
			seen[key]++
			if seen[key] == 2 {
				fs = append(fs, Finding{KindDuplicate, path.Label, fmt.Sprintf("row %s has more than one applicable start", key)})
			}
			if !e.broadcast {
				start[e.row] = e.start
			}
		}

		var finish int64
		for name, s := range start {
			if f := s + procs[name].dur; f > finish {
				finish = f
			}
		}
		if finish != path.TableDelay {
			fs = append(fs, Finding{KindDelay, path.Label, fmt.Sprintf("table delay %d, but the applicable processes finish at %d", path.TableDelay, finish)})
		}

		type interval struct {
			name       string
			begin, end int64
		}
		byPE := map[string][]interval{}
		for name, s := range start {
			pr := procs[name]
			if pr.sequential {
				byPE[pr.pe] = append(byPE[pr.pe], interval{name, s, s + pr.dur})
			}
		}
		peNames := make([]string, 0, len(byPE))
		for pe := range byPE {
			peNames = append(peNames, pe)
		}
		sort.Strings(peNames)
		for _, pe := range peNames {
			iv := byPE[pe]
			sort.Slice(iv, func(i, j int) bool {
				if iv[i].begin != iv[j].begin {
					return iv[i].begin < iv[j].begin
				}
				return iv[i].end < iv[j].end
			})
			// Track the interval reaching furthest so far, so an overlap
			// with any earlier interval is found, not only with the previous one.
			far := -1
			for i := range iv {
				if iv[i].begin == iv[i].end {
					continue
				}
				if far >= 0 && iv[i].begin < iv[far].end {
					fs = append(fs, Finding{KindOverlap, path.Label, fmt.Sprintf("%s [%d,%d) overlaps %s [%d,%d) on %s",
						iv[i].name, iv[i].begin, iv[i].end, iv[far].name, iv[far].begin, iv[far].end, pe)})
				}
				if far < 0 || iv[i].end > iv[far].end {
					far = i
				}
			}
		}

		for _, ed := range p.Edges {
			from, okF := start[ed.From]
			to, okT := start[ed.To]
			if !okF || !okT {
				continue
			}
			if ed.Condition != "" {
				if v, ok := label[ed.Condition]; ok && v != ed.Value {
					continue
				}
			}
			if ready := from + procs[ed.From].dur; to < ready {
				fs = append(fs, Finding{KindPrecedence, path.Label, fmt.Sprintf("%s starts at %d before %s finishes at %d", ed.To, to, ed.From, ready)})
			}
		}
	}
	if deltaM != sol.DeltaM {
		fs = append(fs, Finding{KindDelay, "", fmt.Sprintf("deltaM %d, want max optimal delay %d", sol.DeltaM, deltaM)})
	}
	if deltaMax != sol.DeltaMax {
		fs = append(fs, Finding{KindDelay, "", fmt.Sprintf("deltaMax %d, want max table delay %d", sol.DeltaMax, deltaMax)})
	}
	if deltaMax < deltaM {
		fs = append(fs, Finding{KindDelay, "", fmt.Sprintf("deltaMax %d below deltaM %d", deltaMax, deltaM)})
	}
	return fs
}

// duration is the effective execution time ceil(exec/speed); a
// non-positive speed counts as 1.
func duration(exec int64, speed float64) int64 {
	if speed <= 0 || speed == 1 {
		return exec
	}
	return int64(math.Ceil(float64(exec) / speed))
}
