package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"slices"
	"testing"
)

func testManifest(t *testing.T) (string, *manifest) {
	t.Helper()
	root, err := findRoot("..")
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, man
}

// TestManifestIsWellFormed holds BENCHMARK.json to the limits the
// acceptance driver refuses a file for.
func TestManifestIsWellFormed(t *testing.T) {
	_, man := testManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(man.Workloads) < 2 || len(man.Workloads) > 8 {
		t.Errorf("%d workloads", len(man.Workloads))
	}
	for _, w := range man.Workloads {
		check(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(man.EndToEnd) < 1 || len(man.EndToEnd) > 16 || len(man.PerLayer) < 1 || len(man.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(man.EndToEnd), len(man.PerLayer))
	}
	setup := false
	for _, d := range man.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range slices.Concat(man.PerLayer, man.EndToEnd) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range man.PerLayer {
		check(d.Name)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d", man.RunSeconds)
	}
}

// TestSmoke runs all four workloads end to end at toy size — the child
// daemon included — untraced and traced, and requires every metric the
// manifest names, a correct verdict and a well-formed driver line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots gbbs-serve")
	}
	root, man := testManifest(t)
	ctx := context.Background()
	bin, err := buildServe(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	work, err := makeWorkDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(work)
	for _, w := range man.Workloads {
		for _, traced := range []bool{false, true} {
			e := &env{root: root, work: work, man: man, threads: runtime.NumCPU(), smoke: true, serveBin: bin,
				workload: w.Name, seed: 5, seconds: 0.6, trace: traced}
			rec, err := runWorkload(ctx, e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, rec.Correct, rec.Attempted, rec.Failed)
			}
			defs := man.EndToEnd
			if traced {
				defs = man.PerLayer
			}
			line, err := rec.driverLine(defs)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
				continue
			}
			var parsed struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Fatalf("%s: driver line does not parse: %v", w.Name, err)
			}
			if len(parsed.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics on the driver line, manifest names %d", w.Name, traced, len(parsed.Metrics), len(defs))
			}
			if !traced {
				for name, m := range parsed.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g; they must never be 0", w.Name, name, m.Value)
					}
				}
			}
			if traced {
				if _, err := os.Stat(rec.Info["trace_file"].(string)); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
}
