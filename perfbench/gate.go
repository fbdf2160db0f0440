package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/table"
)

// testdata is the checkout's testdata directory, holding the goldens.
var testdata = "testdata"

// runGate is the correctness gate every run passes before measuring:
// Figure 1 through the library and through POST /v1/schedule against
// testdata/figure1_golden.txt, and expr.GoldenSweep through a coordinator
// and two streaming backends against testdata/sweep_golden.csv. fl is the
// workload's own fleet; nil builds (and closes) a fleet just for the gate.
func runGate(ctx context.Context, fl *fleet) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if fl == nil {
		var err error
		if fl, err = newFleet(); err != nil {
			return err
		}
		defer fl.close()
	}
	golden, err := os.ReadFile(filepath.Join(testdata, "figure1_golden.txt"))
	if err != nil {
		return err
	}
	g, a, err := expr.Figure1()
	if err != nil {
		return err
	}
	res, err := core.ScheduleContext(ctx, g, a, core.Options{})
	if err != nil {
		return fmt.Errorf("figure 1 through the library: %w", err)
	}
	if got := scheduleFingerprint(res); got != string(golden) {
		return incorrect("figure 1 through the library differs from figure1_golden.txt:\n%s", got)
	}

	doc, err := os.ReadFile(filepath.Join(testdata, "figure1_v1.json"))
	if err != nil {
		return err
	}
	sol, err := postSchedule(ctx, fl.client, fl.servers[0].url(), doc)
	if err != nil {
		return fmt.Errorf("figure 1 through POST /v1/schedule: %w", err)
	}
	wantTable, _, _ := strings.Cut(string(golden), "deltaM=")
	if sol.TableText != wantTable {
		return incorrect("figure 1 through POST /v1/schedule: tableText differs from figure1_golden.txt:\n%s", sol.TableText)
	}
	if defective, err := checkSolution(doc, sol); err != nil || defective {
		return incorrect("figure 1 through POST /v1/schedule: defective=%v %v", defective, err)
	}

	wantCSV, err := os.ReadFile(filepath.Join(testdata, "sweep_golden.csv"))
	if err != nil {
		return err
	}
	cells, err := fl.coord.Run(ctx, expr.GoldenSweep())
	if err != nil {
		return fmt.Errorf("golden sweep: %w", err)
	}
	var csv bytes.Buffer
	if err := expr.WriteSweepCSV(&csv, expr.ZeroTimes(cells)); err != nil {
		return err
	}
	if !bytes.Equal(csv.Bytes(), wantCSV) {
		return incorrect("golden sweep through the coordinator differs from sweep_golden.csv:\n%s", csv.String())
	}
	return nil
}

// scheduleFingerprint renders everything deterministic about a result in
// the format of testdata/figure1_golden.txt.
func scheduleFingerprint(res *core.Result) string {
	var b strings.Builder
	b.WriteString(res.Table.Render(table.RenderOptions{Namer: res.Graph.CondName, RowName: res.RowName}))
	fmt.Fprintf(&b, "deltaM=%d deltaMax=%d deterministic=%v\n", res.DeltaM, res.DeltaMax, res.Deterministic())
	for _, p := range res.Paths {
		fmt.Fprintf(&b, "path %s optimal=%d table=%d\n", p.Label.Format(res.Graph.CondName), p.OptimalDelay, p.TableDelay)
	}
	s := res.Stats
	fmt.Fprintf(&b, "paths=%d backsteps=%d segments=%d conflicts=%d resolved=%d unresolved=%d locks=%d lockviol=%d columns=%d entries=%d\n",
		s.Paths, s.BackSteps, s.SegmentsPlaced, s.Conflicts, s.ConflictsResolved,
		s.UnresolvedConflicts, s.Locks, s.LockViolations, s.Columns, s.Entries)
	return b.String()
}
