package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"

	"repro/gbbs"
	"repro/gbbs/store"
)

// This file implements the graph-store endpoints: named, versioned graphs
// that /v1/run can execute against by name ("graph" in RunRequest) and that
// take batched edge insertions without rebuilding.
//
//	GET    /v1/graphs               list stored graphs
//	PUT    /v1/graphs/{name}        build a source spec and store it
//	GET    /v1/graphs/{name}        describe one stored graph
//	DELETE /v1/graphs/{name}        remove a stored graph
//	POST   /v1/graphs/{name}/edges  insert an edge batch, bumping the version
//	DELETE /v1/cache?key=K          invalidate one cache entry by exact key
//
// Each applied batch bumps the graph's version; the version is folded into
// every run fingerprint (store.Snapshot.ID), so results computed on a
// superseded version can never be served, and the update path additionally
// drops those entries from the result cache so they stop occupying budget.

// GraphListResponse is the wire form of GET /v1/graphs.
type GraphListResponse struct {
	// Graphs describes every stored graph, sorted by name.
	Graphs []store.Info `json:"graphs"`
}

// GraphCreateRequest is the body of PUT /v1/graphs/{name}: the input to
// build and store, in the same spec language as RunRequest.
type GraphCreateRequest struct {
	// Source is a gbbs.ParseSource spec ("rmat:scale=18", "grid:64").
	Source string `json:"source"`
	// Transforms are gbbs.ParseTransforms specs applied at build time; runs
	// against the stored graph cannot add more.
	Transforms []string `json:"transforms,omitempty"`
}

// EdgeBatchRequest is the body of POST /v1/graphs/{name}/edges.
type EdgeBatchRequest struct {
	// Edges lists the insertions, one [u, v] pair per edge — or [u, v, w]
	// when the target graph is weighted (the arity must match the graph).
	// Self-loops and already-present edges are ignored; inserting into a
	// symmetric graph stores both directions.
	Edges [][]int64 `json:"edges"`
}

// EdgeBatchResponse is the wire form of a successful edge insertion.
type EdgeBatchResponse struct {
	// Name echoes the target graph.
	Name string `json:"name"`
	// Version is the graph's version after the batch: unchanged when the
	// batch added nothing, incremented by one otherwise.
	Version uint64 `json:"version"`
	// Added is the number of directed edges actually inserted (0 when every
	// batch edge was a self-loop or already present).
	Added int `json:"added"`
	// InvalidatedResults is how many result-cache entries for superseded
	// versions of this graph were dropped.
	InvalidatedResults int `json:"invalidated_results"`
	// Graph describes the resulting snapshot.
	Graph store.Info `json:"graph"`
}

// CacheInvalidateResponse is the wire form of DELETE /v1/cache?key=K.
type CacheInvalidateResponse struct {
	// Key echoes the invalidated key.
	Key string `json:"key"`
	// GraphRemoved reports whether a graph-cache entry was dropped (graph
	// cache keys are canonical specs, e.g. "rmat(scale=16,factor=16)|sym").
	GraphRemoved bool `json:"graph_removed"`
	// ResultRemoved reports whether a result-cache entry was dropped (result
	// cache keys are run fingerprints, RunResponse.Key).
	ResultRemoved bool `json:"result_removed"`
}

// storeInfo renders a snapshot in the same shape as store list entries.
func storeInfo(snap store.Snapshot) store.Info {
	info := store.Info{
		Name: snap.Name, Version: snap.Version, Spec: snap.Spec,
		N: snap.Graph.N(), M: snap.Graph.M(),
		Weighted: snap.Graph.Weighted(), Symmetric: snap.Graph.Symmetric(),
	}
	if ov, ok := snap.Graph.(*gbbs.Overlay); ok {
		info.DeltaEdges = ov.DeltaM()
	}
	return info
}

// dropStored invalidates every result-cache entry computed on any version
// of the named stored graph and returns how many it dropped. A run
// fingerprint embeds the snapshot ID after its algorithm name, and matching
// it up to the version separator makes the name boundary unambiguous:
// "wiki" never matches keys of "wiki2".
func (s *Server) dropStored(name string) int {
	frag := "|store(name=" + name + ",version="
	return s.results.InvalidateMatching(func(key string) bool { return strings.Contains(key, frag) })
}

// handleGraphList implements GET /v1/graphs.
func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, GraphListResponse{Graphs: s.store.List()})
}

// handleGraphGet implements GET /v1/graphs/{name}.
func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	snap, ok := s.store.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", name)
		return
	}
	writeJSON(w, http.StatusOK, storeInfo(snap))
}

// handleGraphDelete implements DELETE /v1/graphs/{name}: the graph is
// removed and every result-cache entry computed on any of its versions is
// dropped (a later graph created under the same name starts at version 1,
// which must not inherit the old graph's cached results).
func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.store.Remove(name) {
		writeError(w, http.StatusNotFound, "unknown graph %q", name)
		return
	}
	s.dropStored(name)
	w.WriteHeader(http.StatusNoContent)
}

// handleGraphCreate implements PUT /v1/graphs/{name}: parse and build the
// spec exactly like a /v1/run input (same validation, same size guard, same
// thread admission), then register the CSR in the store at version 1.
func (s *Server) handleGraphCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req GraphCreateRequest
	if err := decodeBody(w, r, maxRequestBytes, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, "missing \"source\"")
		return
	}
	source, transforms, key, err := s.parseInput(req.Source, req.Transforms)
	if err != nil {
		writeErr(w, err)
		return
	}
	if _, dup := s.store.Get(name); dup {
		writeError(w, http.StatusConflict, "graph %q already exists (DELETE it first; versions are not reused)", name)
		return
	}

	var snap store.Snapshot
	err = s.withEngine(r.Context(), func(ctx context.Context, eng *gbbs.Engine) error {
		g, err := eng.BuildCSR(ctx, source, transforms...)
		if err == nil {
			snap, err = s.store.Create(name, g, key)
		}
		return err
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, storeInfo(snap))
}

// handleGraphEdges implements POST /v1/graphs/{name}/edges: decode the
// batch under the configured data-plane body cap, apply it on an admitted
// engine, and on a version bump drop the result-cache entries of the
// superseded versions so they stop occupying budget. (Correctness does not
// depend on the drop — the new version's fingerprints differ — but stale
// entries would otherwise linger until evicted.)
func (s *Server) handleGraphEdges(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	snap, ok := s.store.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", name)
		return
	}
	var req EdgeBatchRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Edges) == 0 {
		writeError(w, http.StatusBadRequest, "empty edge batch")
		return
	}
	batch, err := decodeBatch(req.Edges, snap.Graph)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	var (
		next  store.Snapshot
		added int
	)
	err = s.withEngine(r.Context(), func(ctx context.Context, eng *gbbs.Engine) (err error) {
		next, added, err = s.store.ApplyEdges(ctx, eng, name, batch)
		return err
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	invalidated := 0
	if added > 0 {
		// The new version's fingerprints differ, so every retained entry for
		// this graph is for a superseded version: drop them all.
		invalidated = s.dropStored(name)
	}
	writeJSON(w, http.StatusOK, EdgeBatchResponse{
		Name:               name,
		Version:            next.Version,
		Added:              added,
		InvalidatedResults: invalidated,
		Graph:              storeInfo(next),
	})
}

// handleCacheInvalidate implements DELETE /v1/cache?key=K: drop the entry
// stored under exactly K from whichever cache holds it (specs key the graph
// cache, run fingerprints the result cache). 404 when neither does.
func (s *Server) handleCacheInvalidate(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, "missing \"key\" query parameter")
		return
	}
	resp := CacheInvalidateResponse{
		Key:           key,
		GraphRemoved:  s.cache.Invalidate(key),
		ResultRemoved: s.results.Invalidate(key),
	}
	if !resp.GraphRemoved && !resp.ResultRemoved {
		writeError(w, http.StatusNotFound, "no cache entry under key %q", key)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeBatch converts wire-form edges into an UpdateBatch matching the
// target graph's weightedness, rejecting wrong arity and out-of-range
// endpoints or weights before any parallel work is admitted.
func decodeBatch(edges [][]int64, g gbbs.Graph) (*gbbs.UpdateBatch, error) {
	weighted := g.Weighted()
	arity := 2
	if weighted {
		arity = 3
	}
	n := int64(g.N())
	batch := &gbbs.UpdateBatch{
		N: g.N(),
		U: make([]uint32, len(edges)),
		V: make([]uint32, len(edges)),
	}
	if weighted {
		batch.W = make([]int32, len(edges))
	}
	for i, e := range edges {
		if len(e) != arity {
			return nil, fmt.Errorf("edge %d has %d elements, want %d ([u, v%s] for this graph)",
				i, len(e), arity, map[bool]string{true: ", w", false: ""}[weighted])
		}
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("edge %d (%d,%d) out of range [0, %d)", i, u, v, n)
		}
		batch.U[i], batch.V[i] = uint32(u), uint32(v)
		if weighted {
			if w := e[2]; w < math.MinInt32 || w > math.MaxInt32 {
				return nil, fmt.Errorf("edge %d weight %d out of int32 range", i, w)
			}
			batch.W[i] = int32(e[2])
		}
	}
	return batch, nil
}

// withEngine runs fn on a pooled engine of the server's default width,
// admitted under DefaultTenant and bounded by the default timeout: the
// build and apply step of the store routes.
func (s *Server) withEngine(ctx context.Context, fn func(context.Context, *gbbs.Engine) error) error {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.DefaultTimeout)
	defer cancel()
	if err := s.limiter.Acquire(ctx, DefaultTenant, s.threads); err != nil {
		return err
	}
	defer s.limiter.Release(DefaultTenant, s.threads)
	eng := s.engines.Get(s.threads)
	defer s.engines.Put(eng)
	return fn(ctx, eng)
}
