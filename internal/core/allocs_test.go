// The race detector's instrumentation allocates on its own, so the pin only
// holds in normal builds.

//go:build !race

package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
)

// TestScheduleAllocsRegression pins the allocation count of one sequential
// table generation of the worked example: path scheduling, merge,
// validation and re-enactment. Activities are addressed through the dense
// activity index (sched.Index) on every stage, so none of them allocates a
// map per schedule, lock set, table row or trace; a higher count means a
// per-activity allocation crept back into one of them.
func TestScheduleAllocsRegression(t *testing.T) {
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	opt := core.Options{Workers: 1}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := core.Schedule(g, a, opt); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	})
	// 848 while schedules, lock sets, table rows and traces were maps keyed
	// by sched.Key.
	const maxAllocs = 452
	if allocs > maxAllocs {
		t.Errorf("core.Schedule allocates %.0f times per run, want <= %d", allocs, maxAllocs)
	}
}
