package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names a workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest is the part of BENCHMARK.json the program needs. The file is the
// single source of the workload and metric names; the program reads it at
// start so the two can never disagree, and the tests check every name is
// produced.
type manifest struct {
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func (m *manifest) endToEnd(name string) (metricDef, bool) {
	for _, d := range m.EndToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func (m *manifest) hasWorkload(name string) bool {
	for _, w := range m.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// suiteProblems is the paper's 15-problem suite in table order; oracleProblems
// are the seven with a sequential reference whose time the work-efficiency
// ratio is taken against.
var (
	suiteProblems  = []string{"bfs", "wbfs", "bellmanford", "bc", "ldd", "cc", "bicc", "scc", "msf", "mis", "mm", "coloring", "kcore", "setcover", "tc"}
	oracleProblems = []string{"bfs", "bellmanford", "bc", "cc", "kcore", "tc", "msf"}
)

// metricSet collects the metrics of one run under their manifest names.
type metricSet map[string]dist

// set records a metric that is one number, taken over n samples.
func (ms metricSet) set(name string, v float64) { ms.setN(name, v, 1) }

func (ms metricSet) setN(name string, v float64, n int) {
	ms[name] = dist{Value: v, Q1: v, Q3: v, N: n}
}

func (ms metricSet) setDist(name string, d dist) { ms[name] = d }

// runRecord is one run of one workload: what the driver's last line carries
// plus the within-run quartiles and the facts needed to read the numbers.
type runRecord struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Trace     bool           `json:"trace"`
	Seconds   float64        `json:"seconds"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   metricSet      `json:"metrics"`
	Info      map[string]any `json:"info,omitempty"`
}

// driverLine renders the record as the one-line JSON object the acceptance
// driver reads: exactly correct, attempted, failed and metrics, the metrics
// being exactly defs.
func (r *runRecord) driverLine(defs []metricDef) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("workload %s did not produce metric %s", r.Workload, d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("workload %s: metric %s is %v (a latency class had no samples)", r.Workload, d.Name, v.Value)
		}
		metrics[d.Name] = mv{Value: v.Value, Unit: d.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(out), err
}
