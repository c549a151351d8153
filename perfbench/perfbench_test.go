package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

func TestHighPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p, v float64
		ok   bool
	}{
		{n: 9}, {n: 99},
		{n: 100, p: 90, v: 90, ok: true},
		{n: 999, p: 90, v: 900, ok: true},
		{n: 1000, p: 99, v: 990, ok: true},
		{n: 10000, p: 99.9, v: 9990, ok: true},
	} {
		p, v, ok := highPercentile(seq(tc.n))
		if p != tc.p || v != tc.v || ok != tc.ok {
			t.Errorf("n=%d: got p%g=%g ok=%v, want p%g=%g ok=%v", tc.n, p, v, ok, tc.p, tc.v, tc.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median of 4 samples = %g, want 2.5", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of 3 samples = %g, want 3", m)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},   // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0},  // runs past its parent
		{Name: "a.1", Start: 15, End: 20, Parent: 1}, // grandchild: a's, not pass's
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	self, _ := layerTotals(append(spans, span{Name: "a", Start: 200, End: 210, Parent: -1}), 1)
	if self["a"] != 35 || self["pass"] != 0 {
		t.Errorf("layer totals from span 1: a=%d pass=%d, want 35 and 0", self["a"], self["pass"])
	}
}

func TestFailureAccounting(t *testing.T) {
	items := []string{"S/ref/0", "S/tsc/0", "S/tsc/1", "S/lt_1/0", "S/lt_10/0", "T/tsc/0"}
	for _, tc := range []struct {
		name       string
		bad        map[string]bool
		mismatched []string
		want       int
	}{
		{name: "clean"},
		{name: "intrinsic", bad: map[string]bool{"S/tsc/1": true}, want: 1},
		{name: "one repetition", mismatched: []string{"S/tsc/0|wall"}, want: 1},
		{name: "mode scope", mismatched: []string{"S/tsc|overhead_pct"}, want: 2},
		{name: "no prefix bleed", mismatched: []string{"S/lt_1|jaccard_vs_tsc"}, want: 1},
		{name: "study scope", mismatched: []string{"S|trace_checks"}, want: 5},
		{name: "whole pass", mismatched: []string{"*|vtime.steps"}, want: 6},
		{name: "counted once", bad: map[string]bool{"S/tsc/0": true},
			mismatched: []string{"S/tsc/0|wall", "S/tsc|overhead_pct"}, want: 2},
	} {
		if got := countFailed(items, tc.bad, tc.mismatched); got != tc.want {
			t.Errorf("%s: %d failed, want %d", tc.name, got, tc.want)
		}
	}

	want := digest{"a|x": 1.0, "a|neg0": math.Copysign(0, -1), "a|s": "abc", "a|gone": 2.0}
	got := digest{"a|x": 1.0 + 1e-12, "a|neg0": 0.0, "a|s": "abd", "a|new": 3.0}
	if m := mismatches(want, got); len(m) != 3 || m[0] != "a|gone" || m[1] != "a|new" || m[2] != "a|s" {
		t.Errorf("mismatches = %v, want [a|gone a|new a|s]", m)
	}
	if sameFloat(1, 1+1e-8) {
		t.Error("a 1e-8 relative difference must not pass as the same statistic")
	}
	if d := countDiffs(counts{"x": 1, "y": 2}, counts{"x": 1, "y": 3}); len(d) != 1 || d[0] != "y" {
		t.Errorf("countDiffs = %v, want [y]", d)
	}
}

// benchmarkFile is the part of BENCHMARK.json the command must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func checkMetricNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var g, w []string
	for n, m := range got {
		g = append(g, n+" "+m.Unit)
	}
	for _, m := range want {
		w = append(w, m.Name+" "+m.Unit)
	}
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("%s metrics:\n got %v\nwant %v", what, g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s metrics:\n got %v\nwant %v", what, g, w)
		}
	}
}

func TestEndToEndMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	outs := []*passOut{{wall: 2e9, cpu: 1e9, alloc: 1e6, events: 10}}
	checkMetricNames(t, "end-to-end", endToEnd(outs, []float64{0.5}), bf.EndToEnd)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if len(bf.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %v", len(bf.Workloads), names)
	}
	for i, w := range bf.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, names[i])
		}
	}
}

// tiny shrinks a workload to MiniFE-1 studies for smoke tests, keeping
// its shape: study count, repetitions, verification, caching, render.
func (w workload) tiny() workload {
	w.specs = append([]string(nil), w.specs...)
	for i := range w.specs {
		w.specs[i] = "MiniFE-1"
	}
	return w
}

// TestTinyWorkloads runs every workload, shrunk to MiniFE-1 studies,
// through set-up, an untraced and a traced pass: the outputs must check
// clean, traced must equal untraced, and the traced run must report
// every per-layer metric of BENCHMARK.json.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several small studies")
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		w := w.tiny()
		t.Run(w.name, func(t *testing.T) {
			r, err := run(w, defaultSeed, 1e-3, true, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !r.result.Correct || r.result.Failed != 0 || r.result.Attempted != 2*len(r.first.items) {
				t.Fatalf("result %+v, lines %q", r.result, r.lines)
			}
			checkMetricNames(t, "per-layer", r.result.Metrics, bf.PerLayer)
			busy := map[string]string{
				"study-lulesh": "experiment.run.busy_s", "verify-tealeaf": "tracecheck.busy_s",
				"postmortem": "runcache.get_s",
			}[w.name]
			if r.result.Metrics[busy].Value <= 0 {
				t.Errorf("%s = %g on the workload it dominates", busy, r.result.Metrics[busy].Value)
			}

			// A pinned reference that disagrees on one mode's statistic
			// fails exactly that mode's repetitions.
			ref := &reference{Seed: defaultSeed, Digest: make(digest), Counts: r.first.counts}
			for k, v := range r.first.digest {
				ref.Digest[k] = v
			}
			key := "MiniFE-1/tsc|mode_wall"
			ref.Digest[key] = ref.Digest[key].(float64) * 2
			r2, err := run(w, defaultSeed, 1e-3, false, t.TempDir(), ref)
			if err != nil {
				t.Fatal(err)
			}
			if want := w.reps * len(w.specs); r2.result.Failed != want || r2.result.Correct {
				t.Errorf("with a wrong pinned %s: %d of %d items failed, want %d",
					key, r2.result.Failed, r2.result.Attempted, want)
			}
		})
	}
}
