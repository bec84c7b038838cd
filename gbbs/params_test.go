package gbbs

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
)

// lookupT fetches a registered algorithm or fails the test.
func lookupT(t *testing.T, name string) Algorithm {
	t.Helper()
	a, ok := Lookup(name)
	if !ok {
		t.Fatalf("algorithm %q not registered", name)
	}
	return a
}

// TestAllBuiltinsDeclareSchemas checks every registered algorithm carries a
// valid Param schema (empty is valid: it declares "no parameters") and that
// the known tunables are declared where the paper has them.
func TestAllBuiltinsDeclareSchemas(t *testing.T) {
	algos := Algorithms()
	if len(algos) < 23 {
		t.Fatalf("only %d registered algorithms, want >= 23", len(algos))
	}
	for _, a := range algos {
		if err := validateSchema(a); err != nil {
			t.Errorf("%s: invalid schema: %v", a.Name, err)
		}
		// Every declared default must survive a round trip through
		// ResolveOpts with empty opts.
		params, err := a.ResolveOpts(nil)
		if err != nil {
			t.Errorf("%s: ResolveOpts(nil): %v", a.Name, err)
			continue
		}
		if len(params) != len(a.Params) {
			t.Errorf("%s: resolved %d params, declared %d", a.Name, len(params), len(a.Params))
		}
	}
	wantParams := map[string][]string{
		"ldd": {"beta"}, "cc": {"beta"}, "spanforest": {}, "bicc": {},
		"scc": {"beta", "trimrounds"}, "deltastepping": {"delta"}, "setcover": {"eps"},
		"bfs": {}, "tc": {}, "kcore": {},
	}
	for name, want := range wantParams {
		a := lookupT(t, name)
		var got []string
		for _, p := range a.Params {
			got = append(got, p.Name)
		}
		if len(got) != len(want) {
			t.Errorf("%s params = %v, want %v", name, got, want)
		}
	}
}

// TestResolveOptsValidation covers the rejection paths: unknown keys, kind
// mismatches, fractional ints, and bounds.
func TestResolveOptsValidation(t *testing.T) {
	cc := lookupT(t, "cc")
	scc := lookupT(t, "scc")
	cases := []struct {
		algo Algorithm
		opts map[string]any
		want string
	}{
		{cc, map[string]any{"bogus": 1}, "unknown parameter"},
		{cc, map[string]any{"beta": "0.2"}, "wants float"},
		{cc, map[string]any{"beta": 0.0}, "below minimum"},
		{cc, map[string]any{"beta": 2.0}, "above maximum"},
		{scc, map[string]any{"trimrounds": 1.5}, "wants an integer"},
		{scc, map[string]any{"trimrounds": -2}, "below minimum"},
		{scc, map[string]any{"beta": true}, "wants float"},
	}
	for _, c := range cases {
		if _, err := c.algo.ResolveOpts(c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %v: err = %v, want %q", c.algo.Name, c.opts, err, c.want)
		}
	}
}

// TestResolveOptsJSONEquivalence is the opts round-trip check: parameters
// composed in Go (int, float64, bool) and the same parameters decoded from
// a JSON body (where every number is float64) must resolve to identical
// normalized maps and identical fingerprints.
func TestResolveOptsJSONEquivalence(t *testing.T) {
	scc := lookupT(t, "scc")
	goOpts := map[string]any{"beta": 1.5, "trimrounds": 5}
	var jsonOpts map[string]any
	if err := json.Unmarshal([]byte(`{"beta": 1.5, "trimrounds": 5}`), &jsonOpts); err != nil {
		t.Fatal(err)
	}
	if _, ok := jsonOpts["trimrounds"].(float64); !ok {
		t.Fatalf("JSON decoding should deliver float64, got %T", jsonOpts["trimrounds"])
	}
	fromGo, err := scc.ResolveOpts(goOpts)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := scc.ResolveOpts(jsonOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromGo, fromJSON) {
		t.Fatalf("normalized params diverge: %v vs %v", fromGo, fromJSON)
	}
	if fromGo["trimrounds"] != 5 {
		t.Fatalf("trimrounds normalized to %v (%T), want int 5", fromGo["trimrounds"], fromGo["trimrounds"])
	}

	input := &InputSpec{Source: RMAT(10, 16, 1), Transforms: []Transform{Symmetrize()}}
	keyGo, err := Request{Input: input, Opts: goOpts}.Key(scc)
	if err != nil {
		t.Fatal(err)
	}
	keyJSON, err := Request{Input: input, Opts: jsonOpts}.Key(scc)
	if err != nil {
		t.Fatal(err)
	}
	if keyGo != keyJSON {
		t.Fatalf("fingerprints diverge:\n%s\nvs\n%s", keyGo, keyJSON)
	}
}

// TestRequestKey pins the fingerprint's canonicalization rules: defaults
// applied, params sorted, spec spellings canonicalized, seed resolved, and
// the source vertex folded only for algorithms that read one.
func TestRequestKey(t *testing.T) {
	cc := lookupT(t, "cc")
	bfs := lookupT(t, "bfs")
	srcA, err := ParseSource("rmat:11")
	if err != nil {
		t.Fatal(err)
	}
	srcB, err := ParseSource("rmat:scale=11,factor=16,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	tfs, err := ParseTransforms("sym")
	if err != nil {
		t.Fatal(err)
	}

	base, err := Request{Input: &InputSpec{Source: srcA, Transforms: tfs}}.Key(cc)
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := Request{Input: &InputSpec{Source: srcB, Transforms: tfs}, Opts: map[string]any{"beta": 0.2}, Seed: Ptr(DefaultSeed)}.Key(cc)
	if err != nil {
		t.Fatal(err)
	}
	if base != spelled {
		t.Fatalf("equivalent requests fingerprint differently:\n%s\nvs\n%s", base, spelled)
	}
	if !strings.Contains(base, "seed=1") || !strings.Contains(base, "beta=0.2") || !strings.HasPrefix(base, "cc|") {
		t.Fatalf("fingerprint missing canonical pieces: %s", base)
	}

	// cc ignores Request.Source, so it must not split the cache.
	withSrc, err := Request{Input: &InputSpec{Source: srcA, Transforms: tfs}, Source: 7}.Key(cc)
	if err != nil {
		t.Fatal(err)
	}
	if withSrc != base {
		t.Fatalf("source vertex leaked into a sourceless fingerprint:\n%s", withSrc)
	}
	// bfs reads it, so it must.
	bfs0, err := Request{Input: &InputSpec{Source: srcA, Transforms: tfs}}.Key(bfs)
	if err != nil {
		t.Fatal(err)
	}
	bfs7, err := Request{Input: &InputSpec{Source: srcA, Transforms: tfs}, Source: 7}.Key(bfs)
	if err != nil {
		t.Fatal(err)
	}
	if bfs0 == bfs7 {
		t.Fatalf("bfs fingerprints ignore the source vertex: %s", bfs0)
	}

	// Different seeds are different results.
	seeded, err := Request{Input: &InputSpec{Source: srcA, Transforms: tfs}, Seed: Ptr(uint64(0))}.Key(cc)
	if err != nil {
		t.Fatal(err)
	}
	if seeded == base {
		t.Fatal("explicit seed 0 shares the default-seed fingerprint")
	}

	// No declarative input: not fingerprintable.
	if _, err := (Request{Graph: gen.BuildRMAT(sched, 4, 4, true, false, 1)}).Key(cc); err == nil {
		t.Fatal("Key accepted a direct Graph")
	}
	// Bad opts: same rejection Engine.Run gives.
	if _, err := (Request{Input: &InputSpec{Source: srcA}, Opts: map[string]any{"beta": -1.0}}).Key(cc); err == nil {
		t.Fatal("Key accepted out-of-range opts")
	}
}

// TestEngineRunValidatesOpts checks Engine.Run rejects schema violations
// with descriptive errors and without executing.
func TestEngineRunValidatesOpts(t *testing.T) {
	g := gen.BuildRMAT(sched, 8, 8, true, false, 1)
	e := New(WithThreads(2))
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Run(ctx, "cc", Request{Graph: g, Opts: map[string]any{"bogus": 1}}); err == nil ||
		!strings.Contains(err.Error(), `unknown parameter "bogus"`) {
		t.Fatalf("unknown param err = %v", err)
	}
	if _, err := e.Run(ctx, "cc", Request{Graph: g, Opts: map[string]any{"beta": 7.0}}); err == nil ||
		!strings.Contains(err.Error(), "above maximum") {
		t.Fatalf("out-of-range err = %v", err)
	}
	// Valid opts still run, JSON-typed or Go-typed alike, and produce the
	// same deterministic labels.
	a, err := e.Run(ctx, "cc", Request{Graph: g, Opts: map[string]any{"beta": 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(ctx, "cc", Request{Graph: g, Opts: map[string]any{"beta": float64(0.3)}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Value, b.Value) {
		t.Fatal("equivalent opts produced different results")
	}
}

// TestEngineRunSeedResolution pins the seed semantics: nil Seed means the
// engine default, an explicit pointer (including to 0) wins, and the
// effective seed is recorded in Result.Seed.
func TestEngineRunSeedResolution(t *testing.T) {
	g := gen.BuildRMAT(sched, 10, 8, true, false, 1)
	e := New(WithThreads(2), WithSeed(9))
	defer e.Close()
	ctx := context.Background()

	res, err := e.Run(ctx, "mis", Request{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 9 {
		t.Fatalf("nil Seed resolved to %d, want engine seed 9", res.Seed)
	}
	res0, err := e.Run(ctx, "mis", Request{Graph: g, Seed: Ptr(uint64(0))})
	if err != nil {
		t.Fatal(err)
	}
	if res0.Seed != 0 {
		t.Fatalf("explicit seed 0 resolved to %d", res0.Seed)
	}
	// Seed 0 is a real seed: it must reproduce itself and may differ from
	// the engine-seed run.
	res0b, err := e.Run(ctx, "mis", Request{Graph: g, Seed: Ptr(uint64(0))})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res0.Value, res0b.Value) {
		t.Fatal("seed 0 is not deterministic")
	}
}

// TestRequestAccessorPanics checks the typed accessors refuse undeclared
// parameters loudly instead of returning silent zeros.
func TestRequestAccessorPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "not declared") {
			t.Fatalf("recover = %v, want schema panic", r)
		}
	}()
	Request{}.Int("nope")
}

// TestRegisterRejectsBadSchemas checks init-time schema validation.
func TestRegisterRejectsBadSchemas(t *testing.T) {
	run := func(ctx context.Context, e *Engine, req Request) (Result, error) { return Result{}, nil }
	cases := []Algorithm{
		{Name: "bad-dup", Run: run, Params: []Param{IntParam("x", 1, "d"), IntParam("x", 2, "d")}},
		{Name: "bad-default", Run: run, Params: []Param{IntParam("x", 5, "d").Bounded(0, 3)}},
		{Name: "bad-bool-bounds", Run: run, Params: []Param{{Name: "x", Kind: ParamBool, Default: true, Min: Ptr(0.0)}}},
		{Name: "bad-kind", Run: run, Params: []Param{{Name: "x", Kind: ParamInt, Default: "one"}}},
		{Name: "bad-empty", Run: run, Params: []Param{{Kind: ParamInt, Default: 1}}},
	}
	for _, a := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%s) did not panic", a.Name)
				}
			}()
			Register(a)
		}()
	}
}
