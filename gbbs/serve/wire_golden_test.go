package serve_test

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"testing"

	"repro/gbbs/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire_golden.txt from the current server")

// Fields whose values depend on the clock or the runtime, not on the
// session: they are pinned by name and position only.
var (
	goldenTimestamps = regexp.MustCompile(`"last_used": "[^"]*"`)
	goldenVolatile   = regexp.MustCompile(`"(build_ns|uptime_ms|goroutines)": \d+`)
)

// getBody returns a GET endpoint's raw body with the volatile fields
// normalised.
func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	body = goldenTimestamps.ReplaceAll(body, []byte(`"last_used": "T"`))
	return goldenVolatile.ReplaceAll(body, []byte(`"$1": 0`))
}

// TestWireShapeGolden replays a fixed sequential session — graph-cache miss,
// hit and eviction; result-cache miss, hit and invalidation; a stored graph
// run before and after an edge batch — and compares the raw
// /v1/cache and /healthz bodies with a committed record, so the field
// names, their order and every counter the caches feed into the wire format
// are pinned byte for byte. Run with -update to rewrite the record.
func TestWireShapeGolden(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxThreads: 2, CacheBytes: 40_000})
	run := func(body string) serve.RunResponse {
		t.Helper()
		var resp serve.RunResponse
		if status := postRun(t, ts, body, &resp); status != http.StatusOK {
			t.Fatalf("run %s: status %d", body, status)
		}
		return resp
	}
	run(`{"source":"path:2000","transforms":["symmetrize"],"algorithm":"cc"}`)
	run(`{"source":"path:2000","transforms":["symmetrize"],"algorithm":"cc"}`)
	// ~32 KB per graph against a 40 KB budget: this build evicts path:2000.
	second := run(`{"source":"path:2001","transforms":["symmetrize"],"algorithm":"cc"}`)
	run(`{"source":"path:2001","transforms":["symmetrize"],"algorithm":"cc","seed":9}`)
	run(`{"source":"path:2001","transforms":["symmetrize"],"algorithm":"bfs","include_value":true}`)
	if status := doJSON(t, ts, http.MethodDelete, "/v1/cache?key="+url.QueryEscape(second.Key), "", nil); status != http.StatusOK {
		t.Fatalf("invalidate result: status %d", status)
	}

	createGraph(t, ts, "g", `{"source":"path:64","transforms":["symmetrize"]}`)
	run(`{"graph":"g","algorithm":"cc"}`)
	if status := doJSON(t, ts, http.MethodPost, "/v1/graphs/g/edges", `{"edges":[[0,63]]}`, nil); status != http.StatusOK {
		t.Fatalf("edge batch: status %d", status)
	}
	run(`{"graph":"g","algorithm":"cc"}`)

	got := bytes.Join([][]byte{
		[]byte("GET /v1/cache"), getBody(t, ts, "/v1/cache"),
		[]byte("GET /healthz"), getBody(t, ts, "/healthz"),
	}, []byte("\n"))
	const golden = "testdata/wire_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire shape drifted from %s (rerun with -update only if the change is intended)\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}
