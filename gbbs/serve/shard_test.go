package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"repro/gbbs"
	"repro/gbbs/serve"
	"repro/gbbs/store"
)

// TestRunShardedMatchesUnsharded is the serving-layer face of the issue's
// acceptance criterion: sharded connectivity over HTTP returns the same
// labels as the unsharded run, shard counts get distinct fingerprints (miss
// on a new K), and repeating a sharded request hits the result cache.
func TestRunShardedMatchesUnsharded(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxShards: 8})
	body := func(shards string) string {
		if shards == "" {
			return `{"source":"rmat:12","transforms":["symmetrize"],"algorithm":"cc","include_value":true}`
		}
		return fmt.Sprintf(`{"source":"rmat:12","transforms":["symmetrize"],"algorithm":"cc","include_value":true,"shards":%q}`, shards)
	}
	var plain serve.RunResponse
	if status := postRun(t, ts, body(""), &plain); status != http.StatusOK {
		t.Fatalf("unsharded run: status %d", status)
	}
	if plain.Sharded != nil {
		t.Fatal("unsharded run reported a shard report")
	}
	keys := map[string]bool{plain.Key: true}
	for _, spec := range []string{"2", "4", "shards=4,by=range"} {
		var resp serve.RunResponse
		if status := postRun(t, ts, body(spec), &resp); status != http.StatusOK {
			t.Fatalf("shards=%s: status %d", spec, status)
		}
		if resp.ResultCache != "miss" {
			t.Fatalf("shards=%s: result_cache = %q on first run, want miss", spec, resp.ResultCache)
		}
		if keys[resp.Key] {
			t.Fatalf("shards=%s: fingerprint %q collides with another shard count", spec, resp.Key)
		}
		keys[resp.Key] = true
		if resp.Result.Summary != plain.Result.Summary {
			t.Fatalf("shards=%s: summary %q, want %q", spec, resp.Result.Summary, plain.Result.Summary)
		}
		if resp.Sharded == nil {
			t.Fatalf("shards=%s: no shard report", spec)
		}
		part, err := gbbs.ParsePartition(spec)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Sharded.Partition != part || len(resp.Sharded.Shards) != part.Shards {
			t.Fatalf("shards=%s: report %+v", spec, resp.Sharded)
		}
		// Repeat: byte-identical request is a result-cache hit.
		var again serve.RunResponse
		if status := postRun(t, ts, body(spec), &again); status != http.StatusOK {
			t.Fatalf("shards=%s repeat: status %d", spec, status)
		}
		if again.ResultCache != "hit" {
			t.Fatalf("shards=%s repeat: result_cache = %q, want hit", spec, again.ResultCache)
		}
		if again.Key != resp.Key || again.Result.Summary != resp.Result.Summary {
			t.Fatalf("shards=%s repeat: response diverged", spec)
		}
	}
	// The sharded cc labels equal the unsharded canonical incrcc labels.
	var incr, shardedCC serve.RunResponse
	postRun(t, ts, `{"source":"rmat:12","transforms":["symmetrize"],"algorithm":"incrcc","include_value":true}`, &incr)
	postRun(t, ts, body("4"), &shardedCC)
	if fmt.Sprint(shardedCC.Result.Value) != fmt.Sprint(incr.Result.Value) {
		t.Fatal("sharded cc labels differ from canonical incrcc labels")
	}
	// Healthz reports the resident coordinators.
	var h serve.HealthResponse
	getJSON(t, ts, "/healthz", &h)
	if h.MaxShards != 8 || len(h.ShardCoordinators) == 0 {
		t.Fatalf("healthz shard state: max_shards=%d, %d coordinators", h.MaxShards, len(h.ShardCoordinators))
	}
	for _, ci := range h.ShardCoordinators {
		if len(ci.Shards) == 0 || ci.Partition == "" {
			t.Fatalf("coordinator info incomplete: %+v", ci)
		}
	}
}

// TestRunShardsValidation covers the rejection paths: sharding disabled,
// bad spec, cap exceeded, non-mergeable algorithm.
func TestRunShardsValidation(t *testing.T) {
	_, tsOff := newTestServer(t, serve.Config{})
	var errResp serve.ErrorResponse
	if status := postRun(t, tsOff, `{"source":"rmat:8","transforms":["symmetrize"],"algorithm":"cc","shards":"2"}`, &errResp); status != http.StatusBadRequest {
		t.Fatalf("sharding disabled: status %d", status)
	}

	_, ts := newTestServer(t, serve.Config{MaxShards: 4})
	for name, body := range map[string]string{
		"bad spec":      `{"source":"rmat:8","transforms":["symmetrize"],"algorithm":"cc","shards":"zero"}`,
		"over cap":      `{"source":"rmat:8","transforms":["symmetrize"],"algorithm":"cc","shards":"8"}`,
		"non-mergeable": `{"source":"rmat:8","transforms":["symmetrize"],"algorithm":"kcore","shards":"2"}`,
	} {
		if status := postRun(t, ts, body, &errResp); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, status)
		}
	}
}

// TestStoredGraphDefaultPartition checks the PUT-side "shards" field: the
// stored default shards mergeable runs (with the partition folded into the
// fingerprint), leaves non-mergeable runs unsharded, and surfaces shard
// stats on the describe endpoint.
func TestStoredGraphDefaultPartition(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxShards: 8})
	var created store.Info
	if status := doJSON(t, ts, http.MethodPut, "/v1/graphs/wiki", `{"source":"rmat:11","transforms":["symmetrize"],"shards":"4"}`, &created); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	if created.Shards != 4 {
		t.Fatalf("create response shards = %d, want 4", created.Shards)
	}
	var resp serve.RunResponse
	if s := postRun(t, ts, `{"graph":"wiki","algorithm":"cc"}`, &resp); s != http.StatusOK {
		t.Fatalf("run: status %d", s)
	}
	if resp.Sharded == nil || resp.Sharded.Partition.Shards != 4 {
		t.Fatalf("stored default partition not applied: %+v", resp.Sharded)
	}
	// The default is part of the fingerprint, so it cannot collide with an
	// explicit unsharded fingerprint — and a non-mergeable algorithm simply
	// runs unsharded.
	var kc serve.RunResponse
	if s := postRun(t, ts, `{"graph":"wiki","algorithm":"kcore"}`, &kc); s != http.StatusOK {
		t.Fatalf("kcore: status %d", s)
	}
	if kc.Sharded != nil {
		t.Fatal("non-mergeable run executed sharded")
	}
	// Describe reports the default shard count and (now that a coordinator
	// is resident) per-shard bytes.
	var info store.Info
	if s := getJSON(t, ts, "/v1/graphs/wiki", &info); s != http.StatusOK {
		t.Fatalf("describe: status %d", s)
	}
	if info.Shards != 4 {
		t.Fatalf("describe shards = %d, want 4", info.Shards)
	}
	if len(info.ShardBytes) != 4 {
		t.Fatalf("describe shard_bytes = %v, want 4 entries", info.ShardBytes)
	}
	for i, b := range info.ShardBytes {
		if b <= 0 {
			t.Fatalf("shard %d: non-positive bytes", i)
		}
	}
	// PUT with shards on a sharding-disabled server is rejected.
	_, tsOff := newTestServer(t, serve.Config{})
	if status := doJSON(t, tsOff, http.MethodPut, "/v1/graphs/wiki", `{"source":"rmat:8","shards":"2"}`, nil); status != http.StatusBadRequest {
		t.Fatalf("disabled PUT: status %d", status)
	}
}

// TestShardCoordinatorInvalidation: an edge batch bumps the version, so the
// next sharded run misses the result cache and resplits while returning the
// updated graph's labels.
func TestShardCoordinatorInvalidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxShards: 8})
	if status := doJSON(t, ts, http.MethodPut, "/v1/graphs/g", `{"source":"path:64","transforms":["symmetrize"],"shards":"2"}`, nil); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	var before serve.RunResponse
	postRun(t, ts, `{"graph":"g","algorithm":"cc"}`, &before)
	// path:64 is connected: 1 component. Run against v1 is cached.
	var again serve.RunResponse
	postRun(t, ts, `{"graph":"g","algorithm":"cc"}`, &again)
	if again.ResultCache != "hit" {
		t.Fatalf("repeat before update: result_cache = %q", again.ResultCache)
	}
	// Insert a new edge; any added edge bumps the version.
	var eb serve.EdgeBatchResponse
	if status := doJSON(t, ts, http.MethodPost, "/v1/graphs/g/edges", `{"edges":[[0,63]]}`, &eb); status != http.StatusOK {
		t.Fatalf("edges: status %d (%+v)", status, eb)
	}
	var after serve.RunResponse
	postRun(t, ts, `{"graph":"g","algorithm":"cc"}`, &after)
	if after.ResultCache != "miss" {
		t.Fatalf("run after version bump: result_cache = %q, want miss", after.ResultCache)
	}
	if after.Key == before.Key {
		t.Fatal("version bump did not change the sharded fingerprint")
	}
	if after.Sharded == nil || after.Sharded.Partition.Shards != 2 {
		t.Fatalf("post-update run not sharded: %+v", after.Sharded)
	}
}

// TestShardCoordinatorDroppedWithGraphSpec: when an operator invalidates a
// file-backed spec because the file changed, the spec's resident
// decompositions go with the graph-cache entry — the next sharded run
// splits the rebuilt graph instead of executing on the old file's split.
func TestShardCoordinatorDroppedWithGraphSpec(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxShards: 4})
	path := filepath.Join(t.TempDir(), "g.adj")
	writePath := func(n int) {
		t.Helper()
		g, err := gbbs.New(gbbs.WithThreads(1)).BuildCSR(context.Background(), gbbs.Path(n), gbbs.Symmetrize())
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := gbbs.WriteAdjacency(f, g); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	run := func(seed int, shards string) serve.RunResponse {
		t.Helper()
		var resp serve.RunResponse
		body := fmt.Sprintf(`{"source":%q,"algorithm":"cc","include_value":true,"seed":%d,"shards":%q}`, "file:"+path, seed, shards)
		if status := postRun(t, ts, body, &resp); status != http.StatusOK {
			t.Fatalf("run seed=%d shards=%q: status %d", seed, shards, status)
		}
		return resp
	}
	writePath(64)
	old := run(1, "2")
	if n := len(old.Result.Value.([]any)); n != 64 {
		t.Fatalf("sharded run on the first file labelled %d vertices, want 64", n)
	}

	writePath(32)
	if status := doJSON(t, ts, http.MethodDelete, "/v1/cache?key="+url.QueryEscape(old.Spec), "", nil); status != http.StatusOK {
		t.Fatalf("invalidate spec: status %d", status)
	}
	var h serve.HealthResponse
	getJSON(t, ts, "/healthz", &h)
	if len(h.ShardCoordinators) != 0 {
		t.Fatalf("coordinators still resident after their graph was invalidated: %+v", h.ShardCoordinators)
	}
	// A fresh fingerprint (new seed) so the result cache is out of the picture.
	fresh := run(2, "2")
	if fresh.Cache != "miss" {
		t.Fatalf("graph cache = %q after invalidation, want a rebuild", fresh.Cache)
	}
	if n := len(fresh.Result.Value.([]any)); n != 32 {
		t.Fatalf("sharded run after the file changed labelled %d vertices, want 32 (stale decomposition)", n)
	}
}
