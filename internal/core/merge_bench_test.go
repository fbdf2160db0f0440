package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/sched"
	"repro/internal/table"
)

// BenchmarkMerge measures the sequential decision-tree merge alone — the
// rung of the layer ladder between per-path list scheduling and validation —
// on the shared 120-node/32-path fixture (the graph of
// BenchmarkScheduleParallelPaths). The per-path schedules are built once
// outside the timer, and the table is not validated.
func BenchmarkMerge(b *testing.B) {
	inst, err := gen.Generate(gen.Config{Seed: 42, Nodes: 120, TargetPaths: 32, Processors: 8, Hardware: 1, Buses: 4})
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	g, a := inst.Graph, inst.Arch
	paths, err := g.AlternativePaths(0)
	if err != nil {
		b.Fatalf("AlternativePaths: %v", err)
	}
	ctx := context.Background()
	infos, err := schedulePaths(ctx, g, a, Options{Workers: 1}, paths, nil)
	if err != nil {
		b.Fatalf("schedulePaths: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &merger{ctx: ctx, g: g, a: a, tbl: table.New(sched.IndexOf(g)), paths: infos}
		if err := m.merge(); err != nil {
			b.Fatalf("merge: %v", err)
		}
	}
}
