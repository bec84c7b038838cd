package gbbs

import (
	"context"
	"fmt"

	"repro/internal/compress"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Build materializes src and applies the given transforms, entirely on the
// engine's private scheduler — graph construction gets the same isolation
// and thread budget as algorithm execution, so concurrent engines never
// contend through a shared build path. The pipeline runs in fixed phases
// (source → weight assignment → relabel → CSR layout → compression), and
// ctx is checked between phases (and between the parallel passes inside
// each phase): once it is cancelled or past its deadline, Build returns
// ctx.Err() promptly.
//
// The result is a *CSR, or a *Compressed when EncodeCompressed is among the
// transforms (use BuildCSR when the uncompressed representation is
// required). Builds are deterministic: the same source and transforms
// produce byte-identical graphs at any thread count.
//
//	eng := gbbs.New(gbbs.WithThreads(8))
//	g, err := eng.Build(ctx, gbbs.RMAT(18, 16, 1), gbbs.Symmetrize(), gbbs.PaperWeights(1))
func (e *Engine) Build(ctx context.Context, src GraphSource, transforms ...Transform) (Graph, error) {
	if src == nil {
		return nil, fmt.Errorf("gbbs: Build with nil source")
	}
	var plan buildPlan
	for _, t := range transforms {
		if t == nil {
			continue
		}
		if err := t.apply(&plan); err != nil {
			return nil, err
		}
	}
	var out Graph
	var buildErr error
	err := e.exec(ctx, func(s *parallel.Scheduler) {
		out, buildErr = runBuild(s, src, &plan)
	})
	if err != nil {
		return nil, err
	}
	if buildErr != nil {
		return nil, buildErr
	}
	return out, nil
}

// BuildCSR is Build restricted to the uncompressed representation, for
// callers that need CSR-only operations (serialization, MaxDegree, slices).
// It fails if the transforms include EncodeCompressed.
func (e *Engine) BuildCSR(ctx context.Context, src GraphSource, transforms ...Transform) (*CSR, error) {
	g, err := e.Build(ctx, src, transforms...)
	if err != nil {
		return nil, err
	}
	csr, ok := g.(*CSR)
	if !ok {
		return nil, fmt.Errorf("gbbs: BuildCSR of %s produced %T (drop EncodeCompressed or use Build)", src, g)
	}
	return csr, nil
}

// runBuild executes the phased build pipeline on scheduler s. s.Poll() is
// checked between phases so a cancelled context unwinds promptly (the
// internal builders poll between their own parallel passes too).
func runBuild(s *parallel.Scheduler, src GraphSource, plan *buildPlan) (Graph, error) {
	s.Poll()
	el, csr, err := src.load(s)
	if err != nil {
		return nil, err
	}
	if el == nil && csr == nil {
		return nil, fmt.Errorf("gbbs: source %s produced no graph", src)
	}
	s.Poll()

	// Sources that materialize a CSR directly (readers, Prebuilt) are
	// exploded back to an edge list when edge-level transforms need to run.
	userShaped := plan.opt != (graph.BuildOptions{})
	needEdgeStage := plan.weights != nil || plan.relabelPerm != nil || userShaped
	if csr != nil && needEdgeStage {
		if !userShaped {
			// Only weight/relabel transforms were requested: the rebuild
			// must reproduce the CSR's edge set exactly, including the
			// self-loops and duplicates readers deliberately preserve.
			plan.opt.KeepSelfLoops = true
			if !csr.Symmetric() {
				plan.opt.KeepDuplicates = true
			}
		}
		// Preserve a symmetric graph's symmetry through the rebuild: both
		// directions are stored, so Symmetrize + dedup is the identity
		// (duplicate edges of a symmetric multigraph are collapsed).
		if csr.Symmetric() {
			plan.opt.Symmetrize = true
		}
		el = graph.FilterEdges(s, csr, csr.Weighted(), nil)
		csr = nil
		s.Poll()
	}

	if el != nil {
		if plan.weights != nil {
			maxW := plan.weights.maxW
			if plan.weights.paper {
				maxW = gen.PaperWeight(el.N)
			}
			gen.WithRandomWeights(s, el, maxW, plan.weights.seed)
			s.Poll()
		}
		if plan.relabelPerm != nil {
			if len(plan.relabelPerm) != el.N {
				return nil, fmt.Errorf("gbbs: Relabel permutation has %d entries for %d vertices", len(plan.relabelPerm), el.N)
			}
			graph.RelabelEdgeList(s, el, plan.relabelPerm)
			s.Poll()
		}
		csr = graph.FromEdgeList(s, el.N, el, plan.opt)
	}

	if plan.relabelByDegree {
		s.Poll()
		perm := graph.DegreePerm(s, csr)
		rel := graph.FilterEdges(s, csr, csr.Weighted(), nil)
		graph.RelabelEdgeList(s, rel, perm)
		s.Poll()
		// The CSR's content is already filtered; rebuild preserving it.
		// Symmetric graphs store both directions, so Symmetrize + dedup
		// reproduces exactly the stored edge set under the new names.
		opt := graph.BuildOptions{KeepSelfLoops: true}
		if csr.Symmetric() {
			opt.Symmetrize = true
		} else {
			opt.KeepDuplicates = true
		}
		csr = graph.FromEdgeList(s, rel.N, rel, opt)
	}

	if plan.compress {
		s.Poll()
		return compress.FromCSR(s, csr, plan.blockSize), nil
	}
	return csr, nil
}
