package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Verdicts of one (workload, metric) row.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// row is one line of a comparison: a metric on a workload in two results
// files, A being the base of the ratio.
type row struct {
	Workload, Metric string
	A, B             []float64
	Ratio            float64 // median(B) / median(A)
	Worse            float64 // share of A's median by which B is worse (negative: better)
	Verdict          string
}

// judge compares B against the base A for a metric whose better direction
// and bound the manifest fixes. B regressed when its median is worse than
// A's by more than the bound and by more than either side's own
// run-to-run spread; it improved when it is better by more than the bound
// and the spreads. In between, a spread wider than the bound means the runs
// cannot tell: unresolved, not unchanged.
func judge(def metricDef, a, b []float64) row {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	r := row{Metric: def.Name, A: a, B: b}
	if ma == 0 {
		r.Verdict = verdictUnresolved
		return r
	}
	r.Ratio = mb / ma
	r.Worse = (mb - ma) / ma
	if def.Better == "higher" {
		r.Worse = (ma - mb) / ma
	}
	noise := max(spread(a), spread(b))
	switch {
	case r.Worse > def.Bound && r.Worse > noise:
		r.Verdict = verdictRegressed
	case -r.Worse > def.Bound && -r.Worse > noise:
		r.Verdict = verdictImproved
	case noise > def.Bound:
		r.Verdict = verdictUnresolved
	default:
		r.Verdict = verdictUnchanged
	}
	return r
}

// values collects a metric's value over the untraced runs of a workload.
func (r *resultsFile) values(workload, metric string) []float64 {
	var out []float64
	for _, rec := range r.Runs {
		if rec.Workload == workload && !rec.Trace {
			if v, ok := rec.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// compareResults builds one row per workload and end-to-end metric.
func compareResults(man *manifest, a, b *resultsFile) []row {
	var rows []row
	for _, w := range man.Workloads {
		for _, def := range man.EndToEnd {
			va, vb := a.values(w.Name, def.Name), b.values(w.Name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := judge(def, va, vb)
			r.Workload = w.Name
			rows = append(rows, r)
		}
	}
	return rows
}

func printRows(w io.Writer, man *manifest, rows []row) (regressed int) {
	fmt.Fprintf(w, "%-13s %-22s %-7s %34s %34s %9s  %s\n", "workload", "metric", "unit", "A median [q1,q3] n", "B median [q1,q3] n", "B/A", "verdict (bound)")
	side := func(xs []float64) string {
		q1, m, q3 := quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g,%.5g] %d", m, q1, q3, len(xs))
	}
	for _, r := range rows {
		def, _ := man.endToEnd(r.Metric)
		fmt.Fprintf(w, "%-13s %-22s %-7s %34s %34s %9.4f  %s (%.0f%%, %s is better)\n",
			r.Workload, r.Metric, def.Unit, side(r.A), side(r.B), r.Ratio, r.Verdict, def.Bound*100, def.Better)
		if r.Verdict == verdictRegressed {
			regressed++
		}
	}
	return regressed
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints the comparison of two results files, A the base, and
// returns the process exit code: 1 when any metric regressed or either
// file holds a failed run.
func compareFiles(man *manifest, pathA, pathB string, w io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	regressed := printRows(w, man, compareResults(man, a, b))
	if regressed > 0 || !a.allCorrect() || !b.allCorrect() {
		fmt.Fprintf(w, "%d regressed; failed runs: A %v, B %v\n", regressed, !a.allCorrect(), !b.allCorrect())
		return 1
	}
	return 0
}

// selfCheck runs the full benchmark twice at the same commit, on seeds 1
// and 2 each, and compares the second set against the first: no metric's
// median may be worse by more than its own bound, and no operation may fail.
func selfCheck(ctx context.Context, base *env, seconds float64, outPath string) int {
	var sets [2]*resultsFile
	var paths [2]string
	for i := range sets {
		res, err := runAll(ctx, base, 1, 2, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		sets[i] = res
		paths[i] = strings.TrimSuffix(outPath, ".json") + fmt.Sprintf("-selfcheck-%c.json", 'A'+i)
		if err := res.write(paths[i]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Printf("selfcheck: %s vs %s\n", paths[0], paths[1])
	rows := compareResults(base.man, sets[0], sets[1])
	printRows(os.Stdout, base.man, rows)
	// With two runs a side the spread estimate is too coarse to lean on:
	// the check is on the medians alone, as the acceptance driver's is.
	outside := 0
	for _, r := range rows {
		if def, _ := base.man.endToEnd(r.Metric); r.Worse > def.Bound {
			fmt.Printf("selfcheck: %s %s: second set worse by %.1f%%, bound %.0f%%\n", r.Workload, r.Metric, r.Worse*100, def.Bound*100)
			outside++
		}
	}
	if outside > 0 || !sets[0].allCorrect() || !sets[1].allCorrect() {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: the two sets agree within every bound")
	return 0
}
