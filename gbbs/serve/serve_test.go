package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/gbbs"
	"repro/gbbs/serve"
)

// newTestServer starts an httptest server around a serve.Server with small,
// test-friendly limits.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postRun posts a raw JSON body to /v1/run and decodes the response into
// out, returning the HTTP status.
func postRun(t *testing.T, ts *httptest.Server, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// getJSON decodes a GET endpoint into out.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 2})
	var h serve.HealthResponse
	if status := getJSON(t, ts, "/healthz", &h); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if h.Status != "ok" || h.ThreadCapacity != 2 {
		t.Fatalf("health = %+v", h)
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	var algos []serve.AlgorithmInfo
	if status := getJSON(t, ts, "/v1/algorithms", &algos); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	byName := map[string]serve.AlgorithmInfo{}
	for _, a := range algos {
		if a.Description == "" {
			t.Errorf("algorithm %q has no description", a.Name)
		}
		byName[a.Name] = a
	}
	if !byName["bfs"].NeedsSource || byName["bfs"].PaperRow == "" {
		t.Fatalf("bfs metadata = %+v", byName["bfs"])
	}
	if !byName["scc"].Directed || !byName["msf"].NeedsWeights || !byName["msf"].NeedsSymmetric || byName["scc"].NeedsSymmetric {
		t.Fatalf("scc/msf metadata wrong: %+v / %+v", byName["scc"], byName["msf"])
	}
	// The endpoint serves each algorithm's full typed parameter schema.
	sccParams := map[string]gbbs.Param{}
	for _, p := range byName["scc"].Params {
		sccParams[p.Name] = p
	}
	beta, ok := sccParams["beta"]
	if !ok || beta.Kind != gbbs.ParamFloat || beta.Default != 2.0 || beta.Min == nil || beta.Doc == "" {
		t.Fatalf("scc beta schema = %+v (params %+v)", beta, byName["scc"].Params)
	}
	if tr, ok := sccParams["trimrounds"]; !ok || tr.Kind != gbbs.ParamInt || tr.Default != float64(3) {
		// JSON numbers decode as float64; the default survives as a number.
		t.Fatalf("scc trimrounds schema = %+v", sccParams["trimrounds"])
	}
	if len(byName["bfs"].Params) != 0 {
		t.Fatalf("bfs declares no parameters, got %+v", byName["bfs"].Params)
	}
}

func TestRunAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 4})
	body := `{"source":"rmat:12","transforms":["symmetrize"],"algorithm":"bfs","threads":2,"timeout_ms":30000}`

	var first serve.RunResponse
	if status := postRun(t, ts, body, &first); status != http.StatusOK {
		t.Fatalf("first run status = %d (%+v)", status, first)
	}
	if first.Cache != "miss" || first.ResultCache != "miss" {
		t.Fatalf("first run cache = %q/%q, want miss/miss", first.Cache, first.ResultCache)
	}
	if first.Result.Summary == "" || first.Graph.N != 1<<12 || !first.Graph.Symmetric {
		t.Fatalf("first run = %+v", first)
	}
	if first.Result.Value != nil {
		t.Fatalf("value returned without include_value: %v", first.Result.Value)
	}
	if first.Key == "" || first.Seed != gbbs.DefaultSeed || first.Result.Seed != gbbs.DefaultSeed {
		t.Fatalf("first run fingerprint/seed = %q/%d/%d", first.Key, first.Seed, first.Result.Seed)
	}

	// The identical request is answered from the result cache: no build, no
	// execution, same canonical spec and fingerprint.
	var second serve.RunResponse
	if status := postRun(t, ts, body, &second); status != http.StatusOK {
		t.Fatalf("second run status = %d", status)
	}
	if second.Cache != "hit" || second.ResultCache != "hit" {
		t.Fatalf("second identical run cache = %q/%q, want hit/hit", second.Cache, second.ResultCache)
	}
	if second.Result.BuildElapsed != 0 {
		t.Fatalf("cache hit reported a build time: %v", second.Result.BuildElapsed)
	}
	if second.Spec != first.Spec || second.Key != first.Key {
		t.Fatalf("canonical identities differ: %q/%q vs %q/%q", second.Spec, second.Key, first.Spec, first.Key)
	}
	if second.Result.Summary != first.Result.Summary {
		t.Fatalf("replayed summary %q differs from original %q", second.Result.Summary, first.Result.Summary)
	}

	var cs serve.CachesResponse
	if status := getJSON(t, ts, "/v1/cache", &cs); status != http.StatusOK {
		t.Fatalf("cache status = %d", status)
	}
	// The graph cache saw only the first request (the second never reached
	// it); the result cache saw both.
	if cs.Graph.Misses != 1 || cs.Graph.Hits != 0 || len(cs.Graph.Entries) != 1 {
		t.Fatalf("graph cache stats = %+v, want 1 miss, 0 hits, 1 entry", cs.Graph)
	}
	if cs.Graph.Entries[0].Spec != first.Spec || cs.Graph.Entries[0].Bytes <= 0 {
		t.Fatalf("graph cache entry = %+v", cs.Graph.Entries[0])
	}
	if cs.Results.Misses != 1 || cs.Results.Hits != 1 || len(cs.Results.Entries) != 1 {
		t.Fatalf("result cache stats = %+v, want 1 miss, 1 hit, 1 entry", cs.Results)
	}
	if cs.Results.Entries[0].Key != first.Key || cs.Results.Entries[0].Bytes <= 0 {
		t.Fatalf("result cache entry = %+v", cs.Results.Entries[0])
	}

	var h serve.HealthResponse
	getJSON(t, ts, "/healthz", &h)
	if h.ResultCacheHits != 1 || h.ResultCacheMisses != 1 || h.ResultCacheEntries != 1 {
		t.Fatalf("healthz result-cache counters = %+v", h)
	}
}

func TestRunSpellingsShareCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 4})
	spellings := []string{
		`{"source":"rmat:12","transforms":["symmetrize"],"algorithm":"cc"}`,
		`{"source":"rmat:scale=12","transforms":["sym"],"algorithm":"cc"}`,
		`{"source":"rmat:scale=12,factor=16,seed=1","transforms":["sym"],"algorithm":"bfs"}`,
	}
	for i, body := range spellings {
		var resp serve.RunResponse
		if status := postRun(t, ts, body, &resp); status != http.StatusOK {
			t.Fatalf("run %d status = %d", i, status)
		}
		want := "miss"
		if i > 0 {
			want = "hit"
		}
		if resp.Cache != want {
			t.Fatalf("spelling %d cache = %q, want %q", i, resp.Cache, want)
		}
	}
}

func TestRunIncludeValue(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 2})
	var resp serve.RunResponse
	body := `{"source":"path:50","transforms":["symmetrize"],"algorithm":"bfs","include_value":true}`
	if status := postRun(t, ts, body, &resp); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	vals, ok := resp.Result.Value.([]any)
	if !ok || len(vals) != 50 {
		t.Fatalf("value = %T (%v), want 50 distances", resp.Result.Value, resp.Result.Value)
	}
}

func TestRunOptsAreForwarded(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 2})
	// JSON numbers arrive as float64; the registry's option readers must
	// still see eps. A crazily large eps yields a different (tiny) cover
	// than the default would — here we just assert the request succeeds.
	var resp serve.RunResponse
	body := `{"source":"rmat:10","transforms":["symmetrize"],"algorithm":"setcover","opts":{"eps":0.5}}`
	if status := postRun(t, ts, body, &resp); status != http.StatusOK {
		t.Fatalf("status = %d (%+v)", status, resp)
	}
}

// TestRunBadParams checks schema validation at the HTTP boundary: unknown
// parameter names, out-of-range values, fractional values for integer
// parameters and unknown transforms are all 400s with descriptive bodies,
// before any execution.
func TestRunBadParams(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 2})
	cases := []struct {
		body string
		want string // substring of the error
	}{
		{`{"source":"rmat:10","transforms":["sym"],"algorithm":"cc","opts":{"bogus":1}}`, "unknown parameter"},
		{`{"source":"rmat:10","transforms":["sym"],"algorithm":"bfs","opts":{"beta":0.2}}`, "unknown parameter"},
		{`{"source":"rmat:10","transforms":["sym"],"algorithm":"cc","opts":{"beta":-0.5}}`, "below minimum"},
		{`{"source":"rmat:10","transforms":["sym"],"algorithm":"setcover","opts":{"eps":2.5}}`, "above maximum"},
		{`{"source":"rmat:10","algorithm":"scc","opts":{"trimrounds":1.5}}`, "wants an integer"},
		{`{"source":"rmat:10","algorithm":"scc","opts":{"beta":true}}`, "wants float"},
		{`{"source":"rmat:10","transforms":["notranspose"],"algorithm":"bfs"}`, "unknown transform"},
		{`{"source":"rmat:10","transforms":["no-transpose"],"algorithm":"scc"}`, "unknown transform"},
	}
	for _, c := range cases {
		var e serve.ErrorResponse
		if status := postRun(t, ts, c.body, &e); status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.body, status)
		} else if !strings.Contains(e.Error, c.want) || strings.Contains(e.Error, "panic") {
			t.Errorf("%s: error %q does not mention %q", c.body, e.Error, c.want)
		}
	}
	// Nothing was admitted or cached for rejected requests.
	var cs serve.CachesResponse
	getJSON(t, ts, "/v1/cache", &cs)
	if cs.Results.Misses != 0 || cs.Graph.Misses != 0 {
		t.Fatalf("rejected requests reached the caches: %+v", cs)
	}
}

// TestFingerprintNormalization checks that equivalent requests — different
// spec spellings, defaults spelled out explicitly, integer-valued JSON
// floats — share one result-cache entry, and that genuinely different
// parameters do not.
func TestFingerprintNormalization(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 4})
	equivalent := []string{
		`{"source":"rmat:11","transforms":["symmetrize"],"algorithm":"cc"}`,
		`{"source":"rmat:scale=11","transforms":["sym"],"algorithm":"cc","opts":{"beta":0.2}}`, // default spelled out
		`{"source":"rmat:scale=11,factor=16,seed=1","transforms":["sym"],"algorithm":"cc","seed":1}`,
	}
	var key string
	for i, body := range equivalent {
		var resp serve.RunResponse
		if status := postRun(t, ts, body, &resp); status != http.StatusOK {
			t.Fatalf("run %d status = %d", i, status)
		}
		if i == 0 {
			key = resp.Key
			if resp.ResultCache != "miss" {
				t.Fatalf("first spelling result_cache = %q", resp.ResultCache)
			}
			continue
		}
		if resp.Key != key || resp.ResultCache != "hit" {
			t.Fatalf("spelling %d: key %q (want %q), result_cache %q (want hit)", i, resp.Key, key, resp.ResultCache)
		}
	}
	// A different beta is a different deterministic result: same graph
	// (cache hit), fresh execution.
	var resp serve.RunResponse
	if status := postRun(t, ts, `{"source":"rmat:11","transforms":["sym"],"algorithm":"cc","opts":{"beta":0.5}}`, &resp); status != http.StatusOK {
		t.Fatalf("beta=0.5 status = %d", status)
	}
	if resp.Key == key || resp.ResultCache != "miss" || resp.Cache != "hit" {
		t.Fatalf("beta=0.5: key=%q result_cache=%q cache=%q, want new fingerprint over cached graph", resp.Key, resp.ResultCache, resp.Cache)
	}
}

// TestExplicitSeedZero pins the Seed sentinel fix on the wire: "seed": 0 is
// a real seed, distinct from an absent seed (which selects
// gbbs.DefaultSeed), and both fingerprints reflect it.
func TestExplicitSeedZero(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 2})
	var zero, absent serve.RunResponse
	if status := postRun(t, ts, `{"source":"rmat:10","transforms":["sym"],"algorithm":"mis","seed":0}`, &zero); status != http.StatusOK {
		t.Fatalf("seed 0 status = %d", status)
	}
	if status := postRun(t, ts, `{"source":"rmat:10","transforms":["sym"],"algorithm":"mis"}`, &absent); status != http.StatusOK {
		t.Fatalf("absent seed status = %d", status)
	}
	if zero.Seed != 0 || zero.Result.Seed != 0 {
		t.Fatalf("explicit seed 0 resolved to %d/%d", zero.Seed, zero.Result.Seed)
	}
	if absent.Seed != gbbs.DefaultSeed {
		t.Fatalf("absent seed resolved to %d, want DefaultSeed", absent.Seed)
	}
	if zero.Key == absent.Key {
		t.Fatalf("seed 0 and absent seed share fingerprint %q", zero.Key)
	}
	if absent.ResultCache != "miss" {
		t.Fatalf("absent-seed run was served from seed-0's cache entry: %+v", absent)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	var e serve.ErrorResponse
	status := postRun(t, ts, `{"source":"path:10","algorithm":"pagerank"}`, &e)
	if status != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", status)
	}
	if e.Error == "" {
		t.Fatal("missing error body")
	}
}

func TestRunBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	cases := []string{
		`{"algorithm":"bfs"}`,                                                // missing source
		`{"source":"","algorithm":"bfs"}`,                                    // empty source
		`{"source":"warp:9","algorithm":"bfs"}`,                              // unknown kind
		`{"source":"rmat:scale=abc","algorithm":"bfs"}`,                      // bad argument
		`{"source":"rmat:scal=12","algorithm":"bfs"}`,                        // typo'd key
		`{"source":"path:10","transforms":["frobnicate"],"algorithm":"bfs"}`, // bad transform
		`{"source":"path:10","algorithm":"bfs","bogus_field":1}`,             // unknown field
		`{not json`, // malformed body
		`{"source":"path:10","algorithm":"wbfs"}`,                // weights required
		`{"source":"path:10","algorithm":"bfs","src":99}`,        // src out of range
		`{"source":"er:n=100,m=-1","algorithm":"cc"}`,            // negative size
		`{"source":"rmat:scale=10,factor=-1","algorithm":"bfs"}`, // negative multiplier
	}
	for _, body := range cases {
		var e serve.ErrorResponse
		if status := postRun(t, ts, body, &e); status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", body, status)
		} else if e.Error == "" {
			t.Errorf("%s: missing error body", body)
		}
	}
}

// TestRunShardsValidation checks that sharding is not part of the request
// API: a run or graph create carrying "shards" is an unknown field and
// gets 400, whatever its value or algorithm.
func TestRunShardsValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for name, body := range map[string]string{
		"count":         `{"source":"rmat:8","transforms":["symmetrize"],"algorithm":"cc","shards":"2"}`,
		"bad spec":      `{"source":"rmat:8","transforms":["symmetrize"],"algorithm":"cc","shards":"zero"}`,
		"non-mergeable": `{"source":"rmat:8","transforms":["symmetrize"],"algorithm":"kcore","shards":"2"}`,
	} {
		var e serve.ErrorResponse
		if status := postRun(t, ts, body, &e); status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, status)
		} else if e.Error == "" {
			t.Errorf("%s: missing error body", name)
		}
	}
	var e serve.ErrorResponse
	if status := doJSON(t, ts, http.MethodPut, "/v1/graphs/wiki", `{"source":"rmat:8","transforms":["symmetrize"],"shards":"4"}`, &e); status != http.StatusBadRequest {
		t.Fatalf("graph create with shards: status = %d, want 400", status)
	}
}

func TestRunBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	big := fmt.Sprintf(`{"source":"path:10","algorithm":"bfs","opts":{"x":"%s"}}`,
		strings.Repeat("a", 2<<20))
	var e serve.ErrorResponse
	if status := postRun(t, ts, big, &e); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("2MiB body status = %d, want 413", status)
	}
}

func TestRunMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run = %d, want 405", resp.StatusCode)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 4})
	// A 1ms deadline cannot survive an rmat:17 build: the request times out
	// while waiting (the detached build finishes and is cached anyway).
	var e serve.ErrorResponse
	body := `{"source":"rmat:17","transforms":["symmetrize"],"algorithm":"bfs","threads":2,"timeout_ms":1}`
	if status := postRun(t, ts, body, &e); status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%+v), want 504", status, e)
	}
	if e.Error == "" {
		t.Fatal("missing error body")
	}
}

func TestRunSizeGuard(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxSourceScale: 14})
	oversized := []string{
		`{"source":"rmat:20","algorithm":"bfs"}`,                        // vertex count
		`{"source":"rmat:scale=10,factor=100000000","algorithm":"bfs"}`, // edge multiplier
		`{"source":"er:n=1024,m=999999999999","algorithm":"bfs"}`,       // explicit edge count
		`{"source":"ba:n=16384,k=1000000","algorithm":"bfs"}`,           // attachment degree
		`{"source":"complete:100000","algorithm":"bfs"}`,                // quadratic edges
		`{"source":"torus:1000","algorithm":"bfs"}`,                     // cubic vertices
	}
	for _, body := range oversized {
		var e serve.ErrorResponse
		if status := postRun(t, ts, body, &e); status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 from the size guard", body, status)
		}
	}
	var resp serve.RunResponse
	if status := postRun(t, ts, `{"source":"rmat:12","transforms":["sym"],"algorithm":"bfs"}`, &resp); status != http.StatusOK {
		t.Fatalf("in-budget source status = %d", status)
	}
}

// TestConcurrentIdenticalRequestsBuildOnce is the acceptance check for the
// singleflight behavior end to end: concurrent duplicate requests share one
// execution (result-cache singleflight) and trigger exactly one build.
func TestConcurrentIdenticalRequestsBuildOnce(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 16})
	body := `{"source":"rmat:13","transforms":["symmetrize"],"algorithm":"cc","threads":1,"timeout_ms":60000}`

	const clients = 8
	var wg sync.WaitGroup
	misses := make([]bool, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp serve.RunResponse
			if status := postRun(t, ts, body, &resp); status != http.StatusOK {
				t.Errorf("client %d: status %d", i, status)
				return
			}
			misses[i] = resp.ResultCache == "miss"
		}(i)
	}
	wg.Wait()

	missCount := 0
	for _, m := range misses {
		if m {
			missCount++
		}
	}
	if missCount != 1 {
		t.Fatalf("%d of %d concurrent identical requests reported a result-cache miss, want exactly 1", missCount, clients)
	}
	var cs serve.CachesResponse
	getJSON(t, ts, "/v1/cache", &cs)
	// Exactly one execution reached the graph cache; every other client
	// joined the in-flight run at the result cache.
	if cs.Graph.Misses != 1 || cs.Graph.Hits != 0 || len(cs.Graph.Entries) != 1 {
		t.Fatalf("graph cache stats after concurrent duplicates = %+v", cs.Graph)
	}
	if cs.Results.Misses != 1 || cs.Results.Hits != clients-1 || len(cs.Results.Entries) != 1 {
		t.Fatalf("result cache stats after concurrent duplicates = %+v", cs.Results)
	}
}

// TestEvictionUnderSmallBudget runs distinct inputs through a server whose
// graph cache holds roughly one graph, and checks the older entries fall
// out.
func TestEvictionUnderSmallBudget(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 4, CacheBytes: 40_000})
	for _, n := range []int{2000, 2001, 2002} {
		body := fmt.Sprintf(`{"source":"path:%d","transforms":["symmetrize"],"algorithm":"cc"}`, n)
		var resp serve.RunResponse
		if status := postRun(t, ts, body, &resp); status != http.StatusOK {
			t.Fatalf("path:%d status = %d", n, status)
		}
	}
	var cs serve.CachesResponse
	getJSON(t, ts, "/v1/cache", &cs)
	if cs.Graph.Evictions < 2 {
		t.Fatalf("evictions = %d, want >= 2 (stats: %+v)", cs.Graph.Evictions, cs.Graph)
	}
	if len(cs.Graph.Entries) != 1 || cs.Graph.SizeBytes > cs.Graph.BudgetBytes {
		t.Fatalf("entries = %+v size=%d budget=%d", cs.Graph.Entries, cs.Graph.SizeBytes, cs.Graph.BudgetBytes)
	}
}

// TestResultCacheEvictionUnderSmallBudget fills a tiny result cache with
// distinct fingerprints (different seeds over one cached graph) and checks
// LRU eviction with observable counters.
func TestResultCacheEvictionUnderSmallBudget(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 4, ResultCacheBytes: 2000})
	for seed := 1; seed <= 4; seed++ {
		// include_value makes each cached response ~1KiB+, so four distinct
		// fingerprints overflow the 2000-byte budget.
		body := fmt.Sprintf(`{"source":"path:300","transforms":["symmetrize"],"algorithm":"cc","seed":%d,"include_value":true}`, seed)
		var resp serve.RunResponse
		if status := postRun(t, ts, body, &resp); status != http.StatusOK {
			t.Fatalf("seed %d status = %d", seed, status)
		}
		if resp.ResultCache != "miss" || resp.Seed != uint64(seed) {
			t.Fatalf("seed %d: result_cache=%q seed=%d, want distinct misses", seed, resp.ResultCache, resp.Seed)
		}
	}
	var cs serve.CachesResponse
	getJSON(t, ts, "/v1/cache", &cs)
	if cs.Results.Misses != 4 || cs.Results.Evictions < 2 {
		t.Fatalf("result cache stats = %+v, want 4 misses and >= 2 evictions", cs.Results)
	}
	if cs.Results.SizeBytes > cs.Results.BudgetBytes {
		t.Fatalf("result cache over budget: %+v", cs.Results)
	}
	// The graph cache kept the one shared input across all four runs.
	if cs.Graph.Misses != 1 || cs.Graph.Hits != 3 {
		t.Fatalf("graph cache stats = %+v, want 1 miss, 3 hits", cs.Graph)
	}
}

// TestThreadClampAndAdmission checks that an over-budget thread request is
// clamped rather than rejected, and that admission serializes two
// whole-budget requests without deadlock.
func TestThreadClampAndAdmission(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 2})
	body := `{"source":"path:500","transforms":["symmetrize"],"algorithm":"bfs","threads":64}`
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp serve.RunResponse
			if status := postRun(t, ts, body, &resp); status != http.StatusOK {
				t.Errorf("status = %d", status)
				return
			}
			if resp.Threads != 2 {
				t.Errorf("threads = %d, want clamped to 2", resp.Threads)
			}
		}()
	}
	wg.Wait()
}

func TestHealthzAfterLoad(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{MaxThreads: 4})
	var resp serve.RunResponse
	if status := postRun(t, ts, `{"source":"path:100","transforms":["sym"],"algorithm":"bfs"}`, &resp); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var h serve.HealthResponse
	getJSON(t, ts, "/healthz", &h)
	if h.ThreadsInUse != 0 {
		t.Fatalf("threads still admitted after requests drained: %+v", h)
	}
	if s.Limiter().InUse() != 0 {
		t.Fatal("limiter leaked units")
	}
}

// TestEngineReuseAcrossRequests checks the serving layer's warm engine
// pool: after sequential identical requests the second one must have been
// served by the engine the first returned, and healthz must report the warm
// residents.
func TestEngineReuseAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{MaxThreads: 4})
	// Distinct seeds give distinct result-cache fingerprints, so both
	// requests really execute (an identical repeat would be answered from
	// the result cache without ever touching the engine pool).
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"source":"path:800","transforms":["symmetrize"],"algorithm":"cc","threads":2,"seed":%d}`, i+1)
		var resp serve.RunResponse
		if status := postRun(t, ts, body, &resp); status != http.StatusOK {
			t.Fatalf("run %d status = %d", i, status)
		}
		// The handler returns its engine in a defer that runs after the
		// response body is written, so wait for the engine to actually land
		// in the pool between requests instead of racing the handler's
		// return.
		deadline := time.Now().Add(5 * time.Second)
		for s.Engines().Stats().WarmEngines < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("run %d: engine never returned to the pool: %+v", i, s.Engines().Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	es := s.Engines().Stats()
	if es.Hits < 1 {
		t.Fatalf("engine pool hits = %d, want >= 1 (stats: %+v)", es.Hits, es)
	}
	if es.WarmEngines < 1 || es.WarmThreads < 2 {
		t.Fatalf("no warm engine retained after requests: %+v", es)
	}
	var h serve.HealthResponse
	getJSON(t, ts, "/healthz", &h)
	if h.WarmEngines != es.WarmEngines || h.WarmThreads != es.WarmThreads {
		t.Fatalf("healthz warm stats %+v diverge from pool stats %+v", h, es)
	}
}
