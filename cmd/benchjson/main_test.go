package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 2.10GHz
BenchmarkTable1Figure1-2   	    5000	    200000 ns/op	  88852 B/op	     627 allocs/op
BenchmarkScheduleParallelPaths/workers=1-2   	     100	   8500000 ns/op
PASS
`

func TestParseRecordsGOMAXPROCS(t *testing.T) {
	res, err := parse(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if res.GOMAXPROCS != 2 || res.CPU != "Test CPU @ 2.10GHz" {
		t.Fatalf("header = gomaxprocs %d, cpu %q; want 2, Test CPU @ 2.10GHz", res.GOMAXPROCS, res.CPU)
	}
	if len(res.Benchmarks) != 2 || res.Benchmarks[1].Name != "BenchmarkScheduleParallelPaths/workers=1" {
		t.Fatalf("benchmarks = %+v", res.Benchmarks)
	}
	if got := res.Benchmarks[0].Metrics["allocs/op"]; got != 627 {
		t.Fatalf("allocs/op = %v, want 627", got)
	}

	// go test prints no suffix when GOMAXPROCS is 1.
	one, err := parse(strings.NewReader("BenchmarkStrategies/critical-path   10   5 ns/op\n"))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if one.GOMAXPROCS != 1 || one.Benchmarks[0].Name != "BenchmarkStrategies/critical-path" {
		t.Fatalf("no suffix: gomaxprocs %d, name %q", one.GOMAXPROCS, one.Benchmarks[0].Name)
	}

	if _, err := parse(strings.NewReader("BenchmarkA-2  10  5 ns/op\nBenchmarkA-4  10  5 ns/op\n")); err == nil {
		t.Fatalf("mixed GOMAXPROCS must be rejected")
	}
}

// diffOutput writes prev as a snapshot file and returns what diffAgainst
// prints for cur.
func diffOutput(t *testing.T, prev, cur Results) string {
	t.Helper()
	data, err := json.Marshal(prev)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prev.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	diffAgainst(&out, path, cur, 0.20)
	return out.String()
}

func snapshot(cpu string, procs int, ns float64) Results {
	return Results{CPU: cpu, GOMAXPROCS: procs, Benchmarks: []Benchmark{
		{Name: "BenchmarkTable1Figure1", Runs: 1, Metrics: map[string]float64{"ns/op": ns}},
	}}
}

func TestDiffComparableSnapshotsWarnOnRegression(t *testing.T) {
	out := diffOutput(t, snapshot("cpu A", 2, 100), snapshot("cpu A", 2, 150))
	if !strings.Contains(out, "WARNING: BenchmarkTable1Figure1 regressed 50.0%") {
		t.Fatalf("regression not reported:\n%s", out)
	}
	out = diffOutput(t, snapshot("cpu A", 2, 100), snapshot("cpu A", 2, 110))
	if !strings.Contains(out, "no ns/op regression") {
		t.Fatalf("small change reported:\n%s", out)
	}
}

func TestDiffSkipsNotComparableSnapshots(t *testing.T) {
	for name, prev := range map[string]Results{
		"cpu":        snapshot("cpu B", 2, 100),
		"gomaxprocs": snapshot("cpu A", 4, 100),
		"unrecorded": snapshot("cpu A", 0, 100),
	} {
		out := diffOutput(t, prev, snapshot("cpu A", 2, 150))
		if !strings.Contains(out, "NOT COMPARABLE") || strings.Contains(out, "WARNING") || strings.Contains(out, "no ns/op regression") {
			t.Errorf("%s differs: want only a not-comparable line, got:\n%s", name, out)
		}
	}
}
