package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c * 0.85, c, c * 1.15, c * 1.3} }
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(101), verdictUnchanged},
		{"worse within the bound", lower, tight(100), tight(108), verdictUnchanged},
		{"worse beyond the bound", lower, tight(100), tight(115), verdictRegressed},
		{"better beyond the bound", lower, tight(100), tight(80), verdictImproved},
		{"higher is better: drop beyond the bound", higher, tight(100), tight(85), verdictRegressed},
		{"higher is better: gain beyond the bound", higher, tight(100), tight(120), verdictImproved},
		{"spread wider than the bound hides a small change", lower, wide(100), wide(105), verdictUnresolved},
		{"spread wider than the bound, change within the spread", lower, wide(100), wide(125), verdictUnresolved},
		{"a change larger than even a wide spread", lower, wide(100), wide(200), verdictRegressed},
		{"single runs have no spread", lower, []float64{100}, []float64{112}, verdictRegressed},
	}
	for _, c := range cases {
		if got := judge(c.def, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (worse by %.3f), want %s", c.name, got.Verdict, got.Worse, c.want)
		}
	}
	if r := judge(lower, tight(100), tight(115)); r.Ratio < 1.14 || r.Ratio > 1.16 {
		t.Errorf("ratio = %g, want B/A = 1.15", r.Ratio)
	}
}

func writeResults(t *testing.T, dir, name string, value float64, correct bool) string {
	t.Helper()
	var runs []*runRecord
	for i, f := range []float64{0.99, 1, 1.01} {
		runs = append(runs, &runRecord{Workload: "w", Seed: uint64(i), Correct: correct, Attempted: 10,
			Metrics: metricSet{"latency_ms": {Value: value * f, N: 5}}})
	}
	// A traced run must not leak into the end-to-end comparison.
	runs = append(runs, &runRecord{Workload: "w", Trace: true, Correct: true, Metrics: metricSet{"latency_ms": {Value: 1e9}}})
	data, err := json.Marshal(resultsFile{Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFilesExitCode(t *testing.T) {
	man := &manifest{
		Workloads: []workloadDef{{Name: "w"}},
		EndToEnd:  []metricDef{{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.10}},
	}
	dir := t.TempDir()
	base := writeResults(t, dir, "a.json", 100, true)
	var out bytes.Buffer
	if code := compareFiles(man, base, writeResults(t, dir, "same.json", 103, true), &out); code != 0 {
		t.Errorf("unchanged comparison exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(man, base, writeResults(t, dir, "slow.json", 130, true), &out); code != 1 {
		t.Errorf("regressed comparison exits %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) || !strings.Contains(out.String(), "latency_ms") {
		t.Errorf("regression not reported by name:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(man, base, writeResults(t, dir, "wrong.json", 100, false), &out); code != 1 {
		t.Errorf("a results file with failed runs exits %d", code)
	}
}
