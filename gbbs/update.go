package gbbs

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file is the public face of the update subsystem: batch edge
// insertion producing versioned snapshots (Engine.ApplyEdges, Overlay,
// Engine.Compact) and connectivity over the resulting edge stream (the
// "incrcc" algorithm, Engine.IncrementalConnectivity, CCState).
// The gbbs/store package composes these into a named, versioned graph
// store; the serving layer exposes that store over HTTP.

// Overlay is a delta-applied graph snapshot: an immutable base CSR plus the
// edges inserted since it was built, merged on the fly so every algorithm
// written against Graph runs on it unchanged. Produced by Engine.ApplyEdges;
// see Engine.Compact for folding it back into a flat CSR.
type Overlay = graph.Overlay

// UpdateBatch is a batch of edge insertions addressed to a snapshot:
// exactly an EdgeList, aliased to make update-path signatures
// self-describing. Self-loops, duplicate edges and edges already present in
// the target snapshot are ignored (insertion is idempotent).
type UpdateBatch = graph.EdgeList

// ApplyEdges returns the snapshot of g with the edges of batch inserted,
// plus the number of directed edges actually added — 0 means every batch
// edge was a self-loop or already present, and g itself is returned.
// Inserting into a symmetric snapshot stores both directions of each new
// edge; inserting into a directed one stores exactly the given direction
// (and its transpose adjacency). The result is byte-deterministic at any
// thread count: compacting it equals a from-scratch build of the union edge
// set.
//
// g must be a *CSR or *Overlay (the mutable-snapshot representations);
// compressed graphs are build-time artifacts and cannot take updates. The
// batch's weightedness must match g's, and endpoints must lie in [0, g.N()).
// g is never modified — previous snapshots remain valid, which is what lets
// the store keep serving an old version while a new one is built.
func (e *Engine) ApplyEdges(ctx context.Context, g Graph, batch *UpdateBatch) (Graph, int, error) {
	switch g.(type) {
	case *CSR, *Overlay:
	default:
		return nil, 0, fmt.Errorf("gbbs: ApplyEdges: snapshot type %T cannot take edge updates", g)
	}
	if batch.Weighted() != g.Weighted() {
		return nil, 0, fmt.Errorf("gbbs: ApplyEdges: batch weighted=%v but graph weighted=%v", batch.Weighted(), g.Weighted())
	}
	n := uint32(g.N())
	for i := 0; i < batch.Len(); i++ {
		if batch.U[i] >= n || batch.V[i] >= n {
			return nil, 0, fmt.Errorf("gbbs: ApplyEdges: edge %d (%d,%d) out of range [0, %d)", i, batch.U[i], batch.V[i], n)
		}
	}
	var out Graph
	var added int
	err := e.exec(ctx, func(s *parallel.Scheduler) { out, added = graph.ApplyEdges(s, g, batch) })
	if err != nil {
		return nil, 0, err
	}
	return out, added, nil
}

// Compact folds a snapshot into a flat CSR: an Overlay is merged
// (byte-identical to building its union edge set from scratch) and a CSR is
// returned as-is. The store calls this once a snapshot's delta grows past
// its compaction threshold.
func (e *Engine) Compact(ctx context.Context, g Graph) (*CSR, error) {
	switch t := g.(type) {
	case *CSR:
		return t, nil
	case *Overlay:
		var out *CSR
		err := e.exec(ctx, func(s *parallel.Scheduler) { out = t.Compact(s) })
		if err != nil {
			return nil, err
		}
		return out, nil
	default:
		return nil, fmt.Errorf("gbbs: Compact: snapshot type %T cannot be compacted", g)
	}
}

// ReadBinaryChecked parses the binary graph format written by WriteBinary,
// accepting only GBBSBIN2: it verifies the header and per-section CRC32C
// checksums and fails with a descriptive error on any corruption, and it
// rejects a legacy GBBSBIN1 stream, which carries no checksums. Every
// adjacency list must be non-decreasing, and directed graphs get their
// transpose built and linked on the engine's scheduler. The
// persistent graph store loads its snapshots through this.
func (e *Engine) ReadBinaryChecked(ctx context.Context, r io.Reader) (*CSR, error) {
	var g *CSR
	var readErr error
	err := e.exec(ctx, func(s *parallel.Scheduler) { g, readErr = graph.ReadBinaryChecked(s, r) })
	if err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, readErr
	}
	return g, nil
}

// CCState carries connectivity knowledge forward across edge insertions:
// Labels is the canonical labelling of some earlier snapshot (as produced
// by the "incrcc" algorithm) and Batches holds every batch inserted since
// that snapshot, in application order. Attached to Request.Incr it lets the
// incrcc runner answer in time proportional to the insertions instead of
// the graph.
type CCState struct {
	// Labels maps each vertex to the minimum vertex id of its component in
	// the snapshot the state was captured on.
	Labels []uint32
	// Batches are the edge batches applied since Labels was captured,
	// oldest first.
	Batches []*UpdateBatch
}

// IncrementalConnectivity updates a canonical labelling after edge
// insertions, uniting only the batch edges — O(b·α(n)) expected work for b
// inserted edges, independent of graph size. The result equals the
// "incrcc" algorithm on the post-insertion snapshot exactly, so callers
// may hand it out (and cache it) interchangeably. prev is not modified.
func (e *Engine) IncrementalConnectivity(ctx context.Context, prev []uint32, batches []*UpdateBatch) (labels []uint32, err error) {
	err = e.exec(ctx, func(s *parallel.Scheduler) { labels = core.IncrementalCC(s, prev, batches) })
	return
}
