// gbbs-run executes one benchmark problem on a graph described by a
// source spec plus transforms (the spec language of gbbs.ParseSource and
// gbbs.ParseTransforms), reporting the result summary and timing — the
// per-problem driver matching the benchmark's I/O specifications (§4).
//
// Algorithms are dispatched through the gbbs registry: there is no
// per-algorithm switch here, and anything registered with gbbs.Register
// (including by third-party packages linked into this binary) is runnable
// by name and enumerable with -list. The engine builds the input on its own
// scheduler, so -threads bounds generation, loading and compression as well
// as the algorithm, and -timeout covers the build. -seed seeds the
// algorithm; generator seeds are part of the source spec.
//
// Algorithm parameters are typed: each registry entry declares a Param
// schema (name, kind, default, bounds), printable with -describe and
// settable with repeated -opt flags. Unknown parameter names and
// out-of-range values are rejected before the run starts.
//
// Usage:
//
//	gbbs-run -list
//	gbbs-run -describe scc
//	gbbs-run -algo bfs -source file:graph.adj -src 0
//	gbbs-run -algo kcore -source rmat:18 -transform sym
//	gbbs-run -algo wbfs -source rmat:16 -transform "sym;paperweights"
//	gbbs-run -algo scc -source rmat:16 -opt beta=1.5 -opt trimrounds=5
//	gbbs-run -algo cc -source rmat:18 -transform "sym;compress" -threads 4 -timeout 30s
//	gbbs-run -algo incrcc -source rmat:16 -transform sym -update "0-9,4-7" -update "1-5"
//
// -update inserts a batch of edges into the built graph before the run
// (Engine.ApplyEdges): the algorithm executes on the updated snapshot, which
// is byte-deterministic at any thread count. Weighted graphs take "u-v=w";
// self-loops and already-present edges are no-ops.
//
// With -server the run executes on a gbbs-serve daemon instead of in
// process: the flags map one to one onto the RunRequest the HTTP API takes,
// so the same command line describes the same input and run either way.
// -async submits the request as a job (POST /v1/jobs), polls its status
// until it finishes, and fetches the result; -tenant names the fair-share
// identity the server charges the run to. -update is local only (a daemon
// takes edge batches at POST /v1/graphs/{name}/edges):
//
//	gbbs-run -server http://localhost:8080 -algo cc -source rmat:16 -transform sym
//	gbbs-run -server http://localhost:8080 -async -tenant gold \
//	  -algo bicc -source rmat:20 -transform sym -timeout 5m
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/gbbs"
	"repro/gbbs/serve"
)

func main() {
	algo := flag.String("algo", "bfs", "algorithm to run (see -list)")
	list := flag.Bool("list", false, "list registered algorithms and exit")
	describe := flag.String("describe", "", "print an algorithm's requirements and full parameter schema, then exit")
	opts := map[string]any{}
	flag.Func("opt", "algorithm parameter as name=value (repeatable; see -describe <algo>)", func(s string) error {
		name, raw, ok := strings.Cut(s, "=")
		if !ok || name == "" {
			return fmt.Errorf("want name=value, got %q", s)
		}
		opts[name] = parseOptValue(raw)
		return nil
	})
	var updateSpecs []string
	flag.Func("update", `edges to insert before the run, "u-v" or "u-v=w", comma-separated (repeatable; local runs only)`, func(s string) error {
		updateSpecs = append(updateSpecs, strings.Split(s, ",")...)
		return nil
	})
	sourceSpec := flag.String("source", "", `source spec (required), e.g. "rmat:scale=18,factor=16" or "file:graph.adj"`)
	transformSpec := flag.String("transform", "", `transform spec, e.g. "sym;paperweights:seed=1;compress"`)
	src := flag.Uint("src", 0, "source vertex for SSSP/BC problems")
	seed := flag.Uint64("seed", gbbs.DefaultSeed, "algorithm seed")
	threads := flag.Int("threads", 0, "worker threads (0 = all CPUs)")
	timeout := flag.Duration("timeout", 0, "abort the build+run after this long (0 = no limit)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON on stdout (the same encoding the serve API returns)")
	server := flag.String("server", "", "execute on a gbbs-serve daemon at this base URL instead of in process")
	async := flag.Bool("async", false, "with -server: submit as an async job and poll until it finishes")
	tenant := flag.String("tenant", "", "with -server: tenant the run's admission is charged to")
	flag.Parse()

	if *list {
		printAlgorithms(os.Stdout)
		return
	}
	if *describe != "" {
		a, ok := gbbs.Lookup(*describe)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown algorithm %q; registered algorithms:\n\n", *describe)
			printAlgorithms(os.Stderr)
			os.Exit(2)
		}
		describeAlgorithm(os.Stdout, a)
		return
	}
	a, ok := gbbs.Lookup(*algo)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q; registered algorithms:\n\n", *algo)
		printAlgorithms(os.Stderr)
		os.Exit(2)
	}
	switch {
	case *sourceSpec == "":
		usageError("-source is required")
	case *server != "" && len(updateSpecs) > 0:
		usageError("-update is local only; send edge batches to a daemon with POST /v1/graphs/{name}/edges")
	case *server == "" && (*async || *tenant != ""):
		usageError("-async and -tenant need -server")
	}
	if *server != "" {
		req := serve.RunRequest{
			Source:       *sourceSpec,
			Algorithm:    a.Name,
			Src:          uint32(*src),
			Seed:         seed,
			Threads:      *threads,
			TimeoutMS:    timeout.Milliseconds(),
			Opts:         opts,
			Tenant:       *tenant,
			IncludeValue: *jsonOut,
		}
		if *transformSpec != "" {
			req.Transforms = []string{*transformSpec}
		}
		runRemote(strings.TrimRight(*server, "/"), req, *async)
		return
	}

	source, err := gbbs.ParseSource(*sourceSpec)
	if err != nil {
		log.Fatal(err)
	}
	transforms, err := gbbs.ParseTransforms(*transformSpec)
	if err != nil {
		log.Fatal(err)
	}
	var engOpts []gbbs.Option
	if *threads > 0 {
		engOpts = append(engOpts, gbbs.WithThreads(*threads))
	}
	eng := gbbs.New(engOpts...)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	req := gbbs.Request{
		Input:  &gbbs.InputSpec{Source: source, Transforms: transforms},
		Source: uint32(*src),
		Seed:   seed,
		Opts:   opts,
	}
	if len(updateSpecs) > 0 {
		// Build first, then insert the batch: the algorithm runs on the
		// updated snapshot (the run request carries the graph directly).
		built, err := eng.Build(ctx, source, transforms...)
		if err != nil {
			log.Fatalf("build: %v", err)
		}
		batch, err := parseUpdateBatch(updateSpecs, built)
		if err != nil {
			log.Fatalf("-update: %v", err)
		}
		updated, added, err := eng.ApplyEdges(ctx, built, batch)
		if err != nil {
			log.Fatalf("applying update batch: %v", err)
		}
		fmt.Fprintf(os.Stderr, "update: %d directed edges inserted (%d edges requested)\n", added, batch.Len())
		req = gbbs.Request{Graph: updated, Source: uint32(*src), Seed: seed, Opts: opts}
	}
	res, err := eng.Run(ctx, a.Name, req)
	if err != nil {
		log.Fatalf("%s: %v", a.Name, err)
	}
	g := res.Graph
	fmt.Fprintf(os.Stderr, "graph: %s n=%d m=%d weighted=%v symmetric=%v threads=%d built in %v\n",
		source, g.N(), g.M(), g.Weighted(), g.Symmetric(), eng.Threads(),
		res.BuildElapsed.Round(time.Microsecond))
	if *jsonOut {
		// One JSON object on stdout, encoded exactly as the serving layer's
		// "result" field (Result's canonical JSON form).
		out := struct {
			Algorithm string      `json:"algorithm"`
			Result    gbbs.Result `json:"result"`
		}{Algorithm: a.Name, Result: res}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatalf("encoding result: %v", err)
		}
		return
	}
	if detail, ok := res.Value.(fmt.Stringer); ok {
		fmt.Println(detail)
	}
	fmt.Printf("%s: %s in %v\n", a.Name, res.Summary, res.Elapsed.Round(time.Microsecond))
}

// usageError reports a command-line mistake and exits with status 2, as
// the flag package does for an unknown flag.
func usageError(msg string) {
	fmt.Fprintf(os.Stderr, "gbbs-run: %s\n", msg)
	os.Exit(2)
}

// postJSON posts body to url and decodes the JSON response into out,
// returning the HTTP status.
func postJSON(url string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, nil
}

// getRetry fetches url and returns the status and raw body. Transport
// errors — connection refused, resets, a dropped reply — are retried with
// capped exponential backoff plus jitter, which is safe because every GET
// here is idempotent (job polls and result fetches). An HTTP response,
// whatever its status, is never retried: the server answered, and the
// caller decides what the status means.
func getRetry(url string) (int, []byte, error) {
	const (
		attempts    = 5
		baseBackoff = 100 * time.Millisecond
		maxBackoff  = 2 * time.Second
	)
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			backoff := baseBackoff << (i - 1)
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
			// Full jitter keeps a fleet of clients from thundering back in
			// lockstep after a server blip.
			time.Sleep(backoff/2 + rand.N(backoff/2))
		}
		resp, err := http.Get(url)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		return resp.StatusCode, data, nil
	}
	return 0, nil, fmt.Errorf("giving up after %d attempts: %w", attempts, lastErr)
}

// serverError renders a non-2xx response for an error message: the "error"
// field of the server's JSON error body when there is one, the raw body
// otherwise.
func serverError(status int, body []byte) string {
	var e serve.ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Sprintf("status %d: %s", status, e.Error)
	}
	if s := strings.TrimSpace(string(body)); s != "" {
		return fmt.Sprintf("status %d: %s", status, s)
	}
	return fmt.Sprintf("status %d (empty error body)", status)
}

// runRemote executes the request on a gbbs-serve daemon. Synchronous mode
// posts to /v1/run and prints the RunResponse. Async mode submits to
// /v1/jobs, reports state transitions on stderr while polling, and fetches
// /v1/jobs/{id}/result once the job finishes; the idempotent polling GETs
// ride out transient connection failures (see getRetry), so a server
// restart mid-poll does not strand the job. Either way, stdout carries
// exactly one JSON object: the run's RunResponse (or the server's
// ErrorResponse, with a non-zero exit).
func runRemote(base string, req serve.RunRequest, async bool) {
	if !async {
		var run json.RawMessage
		status, err := postJSON(base+"/v1/run", req, &run)
		if err != nil {
			log.Fatalf("POST /v1/run: %v", err)
		}
		os.Stdout.Write(append(run, '\n'))
		if status != http.StatusOK {
			os.Exit(1)
		}
		return
	}

	var submitted json.RawMessage
	status, err := postJSON(base+"/v1/jobs", req, &submitted)
	if err != nil {
		log.Fatalf("POST /v1/jobs: %v", err)
	}
	if status != http.StatusAccepted && status != http.StatusOK {
		log.Fatalf("POST /v1/jobs: %s", serverError(status, submitted))
	}
	var job serve.JobStatus
	if err := json.Unmarshal(submitted, &job); err != nil {
		log.Fatalf("POST /v1/jobs: decoding response: %v", err)
	}
	verb := "submitted"
	if status == http.StatusOK {
		verb = "joined"
	}
	fmt.Fprintf(os.Stderr, "%s %s: %s on %s (tenant %s)\n", verb, job.ID, job.Algorithm, req.Source, job.Tenant)

	const pollInterval = 150 * time.Millisecond
	lastState := job.State
	for !terminalJobState(job.State) {
		time.Sleep(pollInterval)
		status, body, err := getRetry(base + "/v1/jobs/" + job.ID)
		if err != nil {
			log.Fatalf("GET /v1/jobs/%s: %v", job.ID, err)
		}
		if status != http.StatusOK {
			log.Fatalf("GET /v1/jobs/%s: %s", job.ID, serverError(status, body))
		}
		if err := json.Unmarshal(body, &job); err != nil {
			log.Fatalf("GET /v1/jobs/%s: decoding response: %v", job.ID, err)
		}
		if job.State != lastState {
			lastState = job.State
			switch job.State {
			case serve.JobQueued:
				fmt.Fprintf(os.Stderr, "%s queued at position %d\n", job.ID, job.QueuePosition)
			default:
				fmt.Fprintf(os.Stderr, "%s %s (queued %dms)\n", job.ID, job.State, job.QueuedMS)
			}
		}
	}
	status, result, err := getRetry(base + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		log.Fatalf("GET /v1/jobs/%s/result: %v", job.ID, err)
	}
	// Success or not, the body is the one JSON object stdout promises (the
	// RunResponse, or the server's ErrorResponse with a non-zero exit).
	os.Stdout.Write(append(bytes.TrimRight(result, "\n"), '\n'))
	if status != http.StatusOK {
		fmt.Fprintf(os.Stderr, "GET /v1/jobs/%s/result: %s\n", job.ID, serverError(status, result))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s done: queued %dms, ran %dms\n", job.ID, job.QueuedMS, job.RunMS)
}

// terminalJobState mirrors the server's JobState.terminal (unexported).
func terminalJobState(s serve.JobState) bool {
	return s == serve.JobDone || s == serve.JobFailed
}

// parseUpdateBatch converts -update specs ("u-v", "u-v=w") into an
// UpdateBatch matching g's weightedness. Weights are only meaningful on
// weighted graphs (defaulting to 1 when omitted) and rejected otherwise;
// endpoint range checks happen inside Engine.ApplyEdges.
func parseUpdateBatch(specs []string, g gbbs.Graph) (*gbbs.UpdateBatch, error) {
	batch := &gbbs.UpdateBatch{N: g.N()}
	if g.Weighted() {
		batch.W = []int32{}
	}
	for _, s := range specs {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		edge, wstr, hasW := strings.Cut(s, "=")
		us, vs, ok := strings.Cut(edge, "-")
		if !ok {
			return nil, fmt.Errorf("bad edge %q (want u-v or u-v=w)", s)
		}
		u, err := strconv.ParseUint(strings.TrimSpace(us), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad endpoint in %q: %v", s, err)
		}
		v, err := strconv.ParseUint(strings.TrimSpace(vs), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad endpoint in %q: %v", s, err)
		}
		w := int64(1)
		if hasW {
			if !g.Weighted() {
				return nil, fmt.Errorf("edge %q carries a weight but the graph is unweighted", s)
			}
			w, err = strconv.ParseInt(strings.TrimSpace(wstr), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad weight in %q: %v", s, err)
			}
		}
		batch.U = append(batch.U, uint32(u))
		batch.V = append(batch.V, uint32(v))
		if batch.W != nil {
			batch.W = append(batch.W, int32(w))
		}
	}
	if batch.Len() == 0 {
		return nil, fmt.Errorf("empty update batch")
	}
	return batch, nil
}

// parseOptValue converts one -opt value to the JSON-compatible dynamic
// types the registry's schema validation accepts: int, then float, then
// bool, falling back to the raw string (which validation will reject with
// a descriptive error naming the expected kind).
func parseOptValue(raw string) any {
	if n, err := strconv.Atoi(raw); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(raw, 64); err == nil {
		return f
	}
	if b, err := strconv.ParseBool(raw); err == nil {
		return b
	}
	return raw
}

// requirements renders an algorithm's input-requirement flags for -list
// and -describe.
func requirements(a gbbs.Algorithm) string {
	var req []string
	if a.NeedsSource {
		req = append(req, "src")
	}
	if a.NeedsWeights {
		req = append(req, "weights")
	}
	if a.NeedsSymmetric {
		req = append(req, "sym")
	}
	if a.Directed {
		req = append(req, "directed")
	}
	return strings.Join(req, " ")
}

// paramSummary renders a compact name=default list of an algorithm's
// parameter schema for the -list table.
func paramSummary(a gbbs.Algorithm) string {
	parts := make([]string, len(a.Params))
	for i, p := range a.Params {
		parts[i] = fmt.Sprintf("%s=%v", p.Name, p.Default)
	}
	return strings.Join(parts, " ")
}

// printAlgorithms writes one line per registered algorithm: name,
// description, the input requirements the registry declares, and the
// parameter schema's name=default summary.
func printAlgorithms(w *os.File) {
	algos := gbbs.Algorithms() // already sorted by name
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tDESCRIPTION\tREQUIRES\tPARAMS")
	for _, a := range algos {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", a.Name, a.Description, requirements(a), paramSummary(a))
	}
	tw.Flush()
}

// describeAlgorithm prints one algorithm's registry metadata and its full
// typed parameter table (kind, default, bounds, doc) — the same schema
// GET /v1/algorithms serves.
func describeAlgorithm(w *os.File, a gbbs.Algorithm) {
	fmt.Fprintf(w, "%s — %s\n", a.Name, a.Description)
	if r := requirements(a); r != "" {
		fmt.Fprintf(w, "requires: %s\n", r)
	}
	if a.PaperRow != "" {
		fmt.Fprintf(w, "paper row: %s\n", a.PaperRow)
	}
	if len(a.Params) == 0 {
		fmt.Fprintln(w, "parameters: none")
		return
	}
	fmt.Fprintln(w, "parameters:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  NAME\tKIND\tDEFAULT\tRANGE\tDOC")
	for _, p := range a.Params {
		bounds := ""
		if p.Min != nil && p.Max != nil {
			bounds = fmt.Sprintf("[%v, %v]", *p.Min, *p.Max)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%v\t%s\t%s\n", p.Name, p.Kind, p.Default, bounds, p.Doc)
	}
	tw.Flush()
}
