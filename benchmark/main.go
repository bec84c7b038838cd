// Command benchmark is the repository's performance benchmark: the paper's
// 15-problem suite in process at 1 and P threads on two graph regimes, and
// the gbbs-serve daemon under two closed-loop traffic mixes, with a ladder
// of per-layer probes in a separate traced run. See README.md beside this
// file and BENCHMARK.json at the repository root.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what one run of one workload needs to know.
type env struct {
	root     string // checkout root (holds BENCHMARK.json, go.mod, cmd/)
	work     string // scratch directory inside the checkout, removed at exit
	man      *manifest
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tr       *tracer // nil unless trace
	threads  int     // P: every CPU the sandbox has
	smoke    bool    // toy sizes, for the tests
	serveBin string  // built gbbs-serve binary
}

// setupReps is how many times a workload sets up within a run; setup_s is
// the median, so one slow page-cache miss does not read as a regression.
func (e *env) setupReps() int {
	if e.smoke {
		return 1
	}
	return 3
}

// fail counts one failed or wrong operation and says why on stderr.
func (r *runRecord) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if r.Failed <= 20 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %s\n", r.Workload, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "", "run one workload and print the driver's result line (default: all four, untraced then traced)")
		seed      = flag.Uint64("seed", 1, "workload seed: algorithm seeds, source vertices, request order, fingerprints and edge batches")
		seconds   = flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics and writing trace.json")
		runs      = flag.Int("runs", 1, "full mode: runs per workload, on seeds seed, seed+1, ...")
		out       = flag.String("out", "", "full mode: results file (default .bench_build/out/results.json)")
		compare   = flag.Bool("compare", false, "compare two results files given as arguments; exit 1 on a regression")
		selfcheck = flag.Bool("selfcheck", false, "run the full benchmark twice on seeds 1 and 2 and compare the two sets")
		smoke     = flag.Bool("smoke", false, "toy sizes: all four workloads end to end in seconds")
		rootFlag  = flag.String("root", "", "repository checkout root (default: found from the working directory)")
		serveBin  = flag.String("serve-bin", "", "gbbs-serve binary to drive (default: built from ./cmd/gbbs-serve)")
		record    = flag.String("record", "", "with -workload: also write the run's full record (quartiles, counts, graph sizes) to this file")
	)
	flag.Parse()

	root, err := findRoot(*rootFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	man, err := loadManifest(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two results files")
			return 2
		}
		return compareFiles(man, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
		if *smoke {
			*seconds = 1
		}
	}

	work, err := makeWorkDir(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	// Every exit path — return, failed run, SIGINT/SIGTERM — goes through
	// cleanup: children are killed and waited for, scratch data removed.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	defer os.RemoveAll(work)

	base := env{root: root, work: work, man: man, threads: runtime.NumCPU(), smoke: *smoke, serveBin: *serveBin}
	if base.serveBin == "" {
		if base.serveBin, err = buildServe(ctx, root); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}

	if *workload != "" {
		if !man.hasWorkload(*workload) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		e := base
		e.workload, e.seed, e.seconds, e.trace = *workload, *seed, *seconds, *trace == 1
		rec, err := runWorkload(ctx, &e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		defs := man.EndToEnd
		if e.trace {
			defs = man.PerLayer
		}
		printRecord(os.Stdout, rec, defs)
		line, err := rec.driverLine(defs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if *record != "" {
			data, err := json.Marshal(rec)
			if err == nil {
				err = os.WriteFile(*record, data, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		fmt.Println(line)
		return 0
	}

	outPath := *out
	if outPath == "" {
		outPath = filepath.Join(root, ".bench_build", "out", "results.json")
	}
	if *selfcheck {
		return selfCheck(ctx, &base, *seconds, outPath)
	}
	res, err := runAll(ctx, &base, *seed, *runs, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := res.write(outPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("results written to %s\n", outPath)
	if !res.allCorrect() {
		return 1
	}
	return 0
}

// runWorkload runs one workload once and returns its record.
func runWorkload(ctx context.Context, e *env) (*runRecord, error) {
	rec := &runRecord{
		Workload: e.workload, Seed: e.seed, Trace: e.trace, Seconds: e.seconds,
		Correct: true, Metrics: make(metricSet), Info: make(map[string]any),
	}
	if e.trace {
		e.tr = newTracer()
	}
	var err error
	if strings.HasPrefix(e.workload, "suite-") {
		err = runSuite(ctx, e, rec)
	} else {
		err = runServe(ctx, e, rec)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.workload, err)
	}
	if e.trace {
		dir := filepath.Join(e.root, ".bench_build", "out")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, "trace-"+e.workload+".json")
		if err := writeTrace(path, e.tr.snapshot()); err != nil {
			return nil, err
		}
		rec.Info["trace_file"] = path
	}
	return rec, nil
}

// resultsFile is what a full run writes and -compare reads.
type resultsFile struct {
	Meta map[string]any `json:"meta"`
	Runs []*runRecord   `json:"runs"`
}

func (r *resultsFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (r *resultsFile) allCorrect() bool {
	for _, rec := range r.Runs {
		if !rec.Correct {
			return false
		}
	}
	return true
}

// runAll is the one command of the benchmark: every workload untraced on
// each seed, every end-to-end metric printed by name, outputs verified; then
// every workload once more traced, for the per-layer metrics and trace.json.
func runAll(ctx context.Context, base *env, seed uint64, runs int, seconds float64) (*resultsFile, error) {
	res := &resultsFile{Meta: runMeta(base, seed, runs, seconds)}
	for _, traced := range []bool{false, true} {
		for _, w := range base.man.Workloads {
			n := runs
			if traced {
				n = 1
			}
			for i := 0; i < n; i++ {
				rec, err := runInChild(ctx, base, w.Name, seed+uint64(i), seconds, traced)
				if err != nil {
					return nil, err
				}
				res.Runs = append(res.Runs, rec)
			}
		}
	}
	return res, nil
}

// runInChild runs one workload in a process of its own, exactly as the
// acceptance driver does: peak RSS, heap and GC state then belong to that
// workload alone, not to whatever ran before it. The child prints its
// metrics and leaves its full record in a file.
func runInChild(ctx context.Context, base *env, workload string, seed uint64, seconds float64, traced bool) (*runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	recordPath := filepath.Join(base.work, "record.json")
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"-root", base.root, "-serve-bin", base.serveBin, "-record", recordPath,
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace,
	}
	if base.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	// An interrupted run asks the child to clean up after itself (daemon,
	// scratch directory) before it is killed outright.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	data, err := os.ReadFile(recordPath)
	if err != nil {
		return nil, err
	}
	rec := new(runRecord)
	return rec, json.Unmarshal(data, rec)
}

// runMeta records what a reader needs to place the numbers.
func runMeta(e *env, seed uint64, runs int, seconds float64) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return map[string]any{
		"commit": commit, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "gogc": gogc, "threads": e.threads,
		"seed": seed, "runs": runs, "seconds": seconds, "smoke": e.smoke,
		"time": time.Now().UTC().Format(time.RFC3339),
	}
}

// printRecord prints every metric of defs by name with its unit, direction,
// value, quartiles and sample count.
func printRecord(w *os.File, rec *runRecord, defs []metricDef) {
	mode := "untraced"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  attempted=%d failed=%d correct=%v\n", rec.Workload, rec.Seed, mode, rec.Attempted, rec.Failed, rec.Correct)
	for _, d := range defs {
		v, ok := rec.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-36s MISSING\n", d.Name)
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", d.Bound*100)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s (%s is better)  q1=%.6g q3=%.6g n=%d%s\n", d.Name, v.Value, d.Unit, d.Better, v.Q1, v.Q3, v.N, bound)
	}
}

// findRoot locates the checkout root: the directory holding BENCHMARK.json
// and this package's directory. The driver starts the program at the root;
// `go -C benchmark run .` starts it one level down.
func findRoot(flagValue string) (string, error) {
	candidates := []string{".", ".."}
	if flagValue != "" {
		candidates = []string{flagValue}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "BENCHMARK.json")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(c, "benchmark", "go.mod")); err != nil {
			continue
		}
		return filepath.Abs(c)
	}
	return "", errors.New("cannot find the checkout root (BENCHMARK.json and benchmark/go.mod); pass -root")
}

// makeWorkDir creates this process's scratch directory under .bench_build
// in the checkout — the benchmark reads and writes nowhere else.
func makeWorkDir(root string) (string, error) {
	parent := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}

// buildServe builds the daemon from the checkout's source, once per
// process, into .bench_build/bin. The go command's own caching makes the
// second and later builds a no-op.
func buildServe(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "gbbs-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/gbbs-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building gbbs-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// peakRSSMB reads VmHWM — the peak resident set — of a process.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func selfPeakRSSMB() float64 { return peakRSSMB(os.Getpid()) }
