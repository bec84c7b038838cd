package gbbs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultSeed is the seed an Engine (and therefore every run whose request
// leaves Seed nil) uses unless WithSeed overrides it.
const DefaultSeed uint64 = 1

// Request is the uniform input of a registry-dispatched algorithm run. The
// graph is given either directly (Graph) or declaratively (Input), in which
// case Engine.Run builds it through Engine.Build — on the engine's
// scheduler, under the run's context — before dispatching.
type Request struct {
	// Graph is the input graph (CSR or compressed). Either Graph or Input
	// is required; Graph wins when both are set.
	Graph Graph
	// Input declares the graph to build when Graph is nil. The build runs
	// through Engine.Build and its wall-clock time is reported separately
	// in Result.BuildElapsed.
	Input *InputSpec
	// GraphID is the canonical identity of a directly-supplied Graph that
	// has no declarative spelling — e.g. a store snapshot's
	// "store(name=wiki,version=3)". When Input is nil, Key fingerprints
	// GraphID in its place, so results computed on versioned snapshots are
	// cacheable and a version bump changes every dependent key. Ignored
	// when Input is set.
	GraphID string
	// Incr, when non-nil, offers prior connectivity state to incremental
	// algorithms ("incrcc"): labels of an earlier snapshot plus the edge
	// batches applied since. It is an execution hint, not an input — the
	// result is identical with or without it — so Key excludes it.
	Incr *CCState
	// Source is the source vertex for SSSP/BC-style problems; ignored by
	// algorithms with NeedsSource == false.
	Source uint32
	// Seed overrides the engine's seed for this run when non-nil. nil means
	// "use the engine's default"; an explicit zero seed is expressible as
	// gbbs.Ptr(uint64(0)). Engine.Run resolves the effective seed exactly
	// once before dispatch and records it in Result.Seed.
	Seed *uint64
	// Opts carries algorithm-specific parameters by name (e.g. "eps" for
	// setcover, "beta" for ldd, "delta" for deltastepping). Engine.Run
	// validates the map against the algorithm's Params schema: unknown keys,
	// type mismatches and out-of-range values are rejected with descriptive
	// errors; missing keys select the schema defaults (the paper's
	// settings). JSON-decoded numbers (always float64) and Go-composed ints
	// normalize to the same values.
	Opts map[string]any

	// params is the normalized parameter map ResolveOpts produced, filled by
	// Engine.Run before dispatch and read by the typed accessors.
	params map[string]any
}

// InputSpec declares a graph build: a source plus the transforms to apply,
// exactly the arguments of Engine.Build. CLI drivers construct it from
// -source/-transform specs (see ParseSource, ParseTransforms); programmatic
// callers compose it from the source and transform constructors.
type InputSpec struct {
	// Source declares where the graph's raw material comes from.
	Source GraphSource
	// Transforms are the build-pipeline steps applied to the source.
	Transforms []Transform
}

// seed resolves the effective seed for a run on engine e.
func (r Request) seed(e *Engine) uint64 {
	if r.Seed != nil {
		return *r.Seed
	}
	return e.seed
}

// param returns the resolved value of a declared parameter. It panics when
// the name was never resolved — an algorithm reading a parameter it did not
// declare in Params is a programmer error the first test run should catch,
// not a silent zero.
func (r Request) param(name string) any {
	v, ok := r.params[name]
	if !ok {
		panic(fmt.Sprintf("gbbs: parameter %q was not declared in the algorithm's Params schema (or Run was invoked outside Engine.Run)", name))
	}
	return v
}

// Int returns the validated value of the named integer parameter. It is
// valid inside Algorithm.Run for parameters the algorithm declared in
// Params: Engine.Run resolves Opts against the schema (applying defaults)
// before dispatch. Reading an undeclared parameter panics.
func (r Request) Int(name string) int { return r.param(name).(int) }

// Float returns the validated value of the named float parameter; see Int
// for the resolution rules.
func (r Request) Float(name string) float64 { return r.param(name).(float64) }

// Bool returns the validated value of the named boolean parameter; see Int
// for the resolution rules.
func (r Request) Bool(name string) bool { return r.param(name).(bool) }

// Key returns the request's canonical fingerprint under algorithm a: the
// deterministic identity of the run's output, folding the algorithm name,
// the canonical source and transform spec strings, the source vertex (only
// for algorithms that read one), the resolved seed, and the normalized
// parameter map (defaults applied, values canonically typed and formatted).
// Two requests with equal keys compute identical results — every algorithm
// is deterministic in (input, seed, params), independent of thread count —
// which is what lets the serving layer key its result cache on it.
//
// Key requires a canonical input spelling: a declarative Request.Input, or
// — for directly-supplied graphs that have one — a GraphID (the store
// stamps its snapshots with "store(name=...,version=N)", so a version bump
// changes every dependent key and stale cache entries can be invalidated
// precisely). A graph with neither cannot be fingerprinted. Request.Incr is
// excluded: it only accelerates the run, never changes the result. A nil
// Seed resolves as DefaultSeed, matching Engine.Run on an engine without
// WithSeed; callers running on engines with non-default seeds should set
// Seed explicitly before fingerprinting. Invalid Opts (unknown keys,
// out-of-range values) return the same error Engine.Run would.
func (r Request) Key(a Algorithm) (string, error) {
	if (r.Input == nil || r.Input.Source == nil) && r.GraphID == "" {
		return "", fmt.Errorf("gbbs: %s: fingerprinting requires a declarative Request.Input or a GraphID", a.Name)
	}
	params, err := a.ResolveOpts(r.Opts)
	if err != nil {
		return "", err
	}
	seed := DefaultSeed
	if r.Seed != nil {
		seed = *r.Seed
	}
	var b strings.Builder
	b.WriteString(a.Name)
	b.WriteByte('|')
	if r.Input != nil && r.Input.Source != nil {
		b.WriteString(r.Input.Source.String())
		for _, t := range r.Input.Transforms {
			b.WriteByte('|')
			b.WriteString(t.String())
		}
	} else {
		b.WriteString(r.GraphID)
	}
	if a.NeedsSource {
		fmt.Fprintf(&b, "|src=%d", r.Source)
	}
	fmt.Fprintf(&b, "|seed=%d", seed)
	if s := canonicalParams(params); s != "" {
		b.WriteByte('|')
		b.WriteString(s)
	}
	return b.String(), nil
}

// Result is the uniform output of a registry-dispatched algorithm run.
//
// Result has a stable JSON form shared by `gbbs-run -json` and the serving
// layer's POST /v1/run responses: summary, value (omitted when nil), and
// the elapsed times as integer nanoseconds (elapsed_ns, build_elapsed_ns).
// The graph itself is never serialized — the serving layer reports its
// shape (n, m, weighted, symmetric) separately.
type Result struct {
	// Summary is a one-line human-readable account of the output (matching
	// the figures the paper's driver prints).
	Summary string `json:"summary"`
	// Value is the algorithm's raw output. Its dynamic type per built-in
	// algorithm:
	//
	//	[]uint32     bfs, wbfs, deltastepping: distances (Inf = unreachable)
	//	             ldd, cc, incrcc, scc: cluster or component labels
	//	             spanforest: each vertex's parent
	//	             coloring, coloring-lf: colors
	//	             kcore, kcore-faa, approxkcore: corenesses
	//	             setcover: the vertices whose sets form the cover
	//	[]int64      bellmanford: distances (InfDist, NegInfDist sentinels)
	//	[]float64    bc: dependency scores
	//	[]bool       mis, misprefix: set membership
	//	[]WEdge      msf: forest edges; mm: matched edges
	//	*Bicc        bicc
	//	int64        tc: the triangle count
	//	fmt.Stringer stats, stats-dir: the paper's statistics table
	//
	// A few figures exist only in Summary: kcore's peeling rounds ρ,
	// spanforest's tree count, bellmanford's negative-cycle flag and msf's
	// total weight.
	Value any `json:"value,omitempty"`
	// Elapsed is the wall-clock running time of the algorithm itself
	// (excluding graph loading), filled in by Engine.Run.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Seed is the effective seed the run used — Request.Seed when set,
	// otherwise the engine's default — resolved once by Engine.Run. For a
	// fixed seed every algorithm's output is deterministic, so (algorithm,
	// input, Seed, params) identifies this result; Request.Key builds the
	// serving layer's result-cache fingerprint from exactly those fields.
	Seed uint64 `json:"seed"`
	// Graph is the graph the run executed on: Request.Graph when given,
	// otherwise the graph built from Request.Input. It is excluded from the
	// JSON form.
	Graph Graph `json:"-"`
	// BuildElapsed is the wall-clock time Engine.Build spent materializing
	// Request.Input; zero when Request.Graph was supplied directly.
	BuildElapsed time.Duration `json:"build_elapsed_ns,omitempty"`
}

// Algorithm describes one registered algorithm: CLI-facing metadata plus the
// runner the drivers dispatch through.
type Algorithm struct {
	// Name is the registry key ("bfs", "kcore", ...). Required, unique.
	Name string
	// Description is the one-line description -list prints.
	Description string
	// Params is the algorithm's typed parameter schema: the complete set of
	// Request.Opts keys it accepts, each with a kind, default, optional
	// bounds and a doc line. Engine.Run rejects requests whose Opts stray
	// from this schema; an empty (or nil) Params means the algorithm takes
	// no parameters and any Opts key is an error. Register validates the
	// schema at init time.
	Params []Param
	// NeedsSource marks algorithms that read Request.Source.
	NeedsSource bool
	// NeedsWeights marks algorithms requiring edge weights.
	NeedsWeights bool
	// NeedsSymmetric marks algorithms whose problem is defined on an
	// undirected graph: Engine.Run refuses a directed input, on which some of
	// them would never return and the rest would answer a different question.
	NeedsSymmetric bool
	// Directed marks algorithms that want the directed variant of an input
	// (the paper runs SCC on directed graphs and everything else on
	// symmetrized ones).
	Directed bool
	// PaperRow, when non-empty, is this algorithm's row label in the
	// paper's Tables 2/4/5; PaperSuite collects the 15 problems that carry
	// one.
	PaperRow string
	// PaperOrder is the algorithm's row position within the paper's tables.
	PaperOrder int
	// Run executes the algorithm on engine e. Implementations fill
	// Result.Summary and Result.Value; Engine.Run fills Result.Elapsed.
	Run func(ctx context.Context, e *Engine, req Request) (Result, error)
}

var registry = struct {
	sync.RWMutex
	m map[string]Algorithm
}{m: make(map[string]Algorithm)}

// Register adds an algorithm to the registry. It panics on an empty name, a
// nil runner, an invalid parameter schema, or a duplicate registration —
// all programmer errors at init time, matching the stdlib registry idiom
// (gob.Register, sql.Register).
func Register(a Algorithm) {
	if a.Name == "" {
		panic("gbbs: Register with empty algorithm name")
	}
	if a.Run == nil {
		panic("gbbs: Register " + a.Name + " with nil Run")
	}
	if err := validateSchema(a); err != nil {
		panic("gbbs: Register: " + err.Error())
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[a.Name]; dup {
		panic("gbbs: Register called twice for algorithm " + a.Name)
	}
	registry.m[a.Name] = a
}

// Algorithms returns all registered algorithms sorted by name.
func Algorithms() []Algorithm {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Algorithm, 0, len(registry.m))
	for _, a := range registry.m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PaperSuite returns the algorithms forming the paper's Tables 2/4/5 rows,
// in row order.
func PaperSuite() []Algorithm {
	all := Algorithms()
	out := all[:0]
	for _, a := range all {
		if a.PaperRow != "" {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PaperOrder < out[j].PaperOrder })
	return out
}

// Lookup returns the algorithm registered under name.
func Lookup(name string) (Algorithm, bool) {
	registry.RLock()
	defer registry.RUnlock()
	a, ok := registry.m[name]
	return a, ok
}

// Run dispatches an algorithm by registry name: it validates the request
// against the algorithm's requirements and parameter schema, resolves the
// effective seed (Request.Seed when set, the engine's default otherwise —
// recorded in Result.Seed), builds the graph from Request.Input when no
// graph was given directly, executes the algorithm on this engine, and
// returns the Result with Elapsed (and BuildElapsed for declarative inputs)
// filled in. Unknown names, missing graphs, unmet weight or symmetry
// requirements, and Opts straying from the schema (unknown keys, wrong
// types, out-of-range values) return descriptive errors.
func (e *Engine) Run(ctx context.Context, name string, req Request) (Result, error) {
	a, ok := Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("gbbs: unknown algorithm %q", name)
	}
	params, err := a.ResolveOpts(req.Opts)
	if err != nil {
		return Result{}, err
	}
	req.params = params
	seed := req.seed(e)
	req.Seed = &seed
	var buildElapsed time.Duration
	if req.Graph == nil && req.Input != nil {
		if req.Input.Source == nil {
			return Result{}, fmt.Errorf("gbbs: %s: Request.Input has a nil Source", name)
		}
		start := time.Now()
		g, err := e.Build(ctx, req.Input.Source, req.Input.Transforms...)
		if err != nil {
			return Result{}, fmt.Errorf("gbbs: %s: building %s: %w", name, req.Input.Source, err)
		}
		buildElapsed = time.Since(start)
		req.Graph = g
	}
	if req.Graph == nil {
		return Result{}, fmt.Errorf("gbbs: %s: Request.Graph and Request.Input are both nil", name)
	}
	if !req.Graph.Symmetric() && req.Graph.Transpose() == nil {
		return Result{}, fmt.Errorf("gbbs: %s: directed graph has no transpose (an out-only graph, such as a SplitCSR shard or cut graph, is not an algorithm input)", name)
	}
	if a.NeedsSymmetric && !req.Graph.Symmetric() {
		return Result{}, fmt.Errorf("gbbs: %s requires a symmetric graph (add a sym transform)", name)
	}
	if a.NeedsWeights && !req.Graph.Weighted() {
		return Result{}, fmt.Errorf("gbbs: %s requires a weighted graph (add a weights or paperweights transform)", name)
	}
	if a.NeedsSource && int64(req.Source) >= int64(req.Graph.N()) {
		return Result{}, fmt.Errorf("gbbs: %s: source %d out of range [0, %d)", name, req.Source, req.Graph.N())
	}
	start := time.Now()
	res, err := a.Run(ctx, e, req)
	if err != nil {
		return Result{}, err
	}
	res.Elapsed = time.Since(start)
	res.Seed = seed
	res.Graph = req.Graph
	res.BuildElapsed = buildElapsed
	return res, nil
}
