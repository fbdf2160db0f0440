package main

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/service"
)

// editSequence renders the http-edit script of a seed.
func editSequence(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	s, err := newEditScript(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, req := range append(s.initial, s.reqs...) {
		out.WriteString(req.key)
		out.Write(req.body)
	}
	return out.Bytes()
}

func TestEditSequenceSeeded(t *testing.T) {
	a, b := editSequence(t, 5, 60), editSequence(t, 5, 60)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed gave two different http-edit request sequences")
	}
	if bytes.Equal(a, editSequence(t, 6, 60)) {
		t.Fatal("two seeds gave the same http-edit request sequence")
	}
}

func TestEditSequenceMix(t *testing.T) {
	s, err := newEditScript(1, editCycle)
	if err != nil {
		t.Fatal(err)
	}
	var kinds [3]int
	docs := map[string]bool{}
	for i, req := range s.reqs {
		kinds[s.kinds[i]]++
		docs[req.key] = true
	}
	want := [3]int{editBlockEdits, editBlockRepeats, 1}
	for k, n := range kinds {
		if n != want[k]*editCycle/editBlock {
			t.Fatalf("operation kinds %v in %d operations, want %v per block of %d", kinds, editCycle, want, editBlock)
		}
	}
	if len(docs) <= service.DefaultCacheSize {
		t.Fatalf("one pass sends %d distinct documents; the memo holds %d, so it would not evict", len(docs), service.DefaultCacheSize)
	}
}

// inputs renders the inputs a workload's set-up generates from a seed.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	var out bytes.Buffer
	cm, err := setupColdMix(context.Background(), seed, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cm.(*coldMix).pool {
		out.WriteString(p.g.Name())
	}
	for i := 0; i < 20; i++ {
		c := sweepPlan(seed, i)
		fmt.Fprintf(&out, "%v %v %d %d\n", c.Nodes, c.Paths, c.GraphsPerCell, c.Seed)
	}
	return out.Bytes()
}

func TestInputsSeeded(t *testing.T) {
	a, b := inputs(t, 9), inputs(t, 9)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed gave two different cold-mix pools or sweep plans")
	}
	if bytes.Equal(a, inputs(t, 10)) {
		t.Fatal("two seeds gave the same cold-mix pool and sweep plans")
	}
}

func TestPercentileSampleRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, n, err := percentile(xs, 95)
	if err != nil || n != 200 || v != 190 {
		t.Fatalf("p95 of 1..200 = %v (n=%d, err=%v), want 190 with n=200", v, n, err)
	}
	if _, n, err := percentile(xs[:199], 95); err == nil || n != 199 {
		t.Fatalf("p95 of 199 samples (9 beyond): err=%v n=%d, want a refusal reporting n=199", err, n)
	}
	if v, _, err := percentile(xs[:20], 50); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) accepted")
	}
}

func TestQuietWindows(t *testing.T) {
	steals := []uint64{0, 90, 1, 2, 0, 40}
	var ws []window
	for i, st := range steals {
		n := 30
		if st > 10 {
			n = 3 // stalled by the host
		}
		ws = append(ws, window{secs: 3, problems: n, lat: make([]float64, n), steal: st})
		ws[i].lat[0] = float64(i)
	}
	kept := quiet(ws, 60)
	if len(kept) != 3 || kept[0].lat[0] != 0 || kept[1].lat[0] != 4 || kept[2].lat[0] != 2 {
		t.Fatalf("kept %v, want windows 0, 4 and 2: the quietest half", kept)
	}
	if got := rate(kept); got != 10 {
		t.Fatalf("rate = %v, want the median window rate 10", got)
	}
	if kept = quiet(ws, 100); len(kept) != 4 || len(latencies(kept)) != 120 {
		t.Fatalf("kept %d windows with %d calls, want 4 windows holding the 100 calls asked for", len(kept), len(latencies(kept)))
	}
	for i := range ws {
		ws[i].steal = 0
	}
	if kept = quiet(ws, 60); len(kept) != len(ws) {
		t.Fatalf("kept %d of %d windows without steal, want all", len(kept), len(ws))
	}
}

// TestWorkloadsTraced runs every workload end to end in traced mode for a
// moment: set-up, gate, both loops, verification and the replays.
func TestWorkloadsTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	testdata = "../testdata"
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			res, err := measure(context.Background(), wl, 3, time.Second, true, t.TempDir(), &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
			}
			for _, l := range layerMetrics {
				if _, ok := res.metrics.byName[l[0]]; !ok {
					t.Errorf("per-layer metric %s missing", l[0])
				}
			}
		})
	}
}
