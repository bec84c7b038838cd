package gbbs

import (
	"fmt"

	"repro/internal/graph"
)

// Transform is one composable step of the build pipeline Engine.Build runs
// after materializing a GraphSource: shaping options (Symmetrize,
// KeepSelfLoops, KeepDuplicates), edge-level rewrites
// (UniformWeights, PaperWeights, Relabel, RelabelByDegree) and the output
// representation (EncodeCompressed). Transforms are inert descriptions, like
// sources; Engine.Build applies them in a fixed pipeline order (weights →
// relabel → CSR layout → compression) regardless of argument order, all on
// the engine's scheduler.
type Transform interface {
	// String describes the transform for CLI echo and error messages.
	String() string
	// apply folds the transform into the build plan.
	apply(p *buildPlan) error
}

// buildPlan is the resolved configuration of one Engine.Build call.
type buildPlan struct {
	opt             graph.BuildOptions
	weights         *weightPlan
	relabelPerm     []uint32
	relabelByDegree bool
	compress        bool
	blockSize       int
}

// weightPlan describes a weight-assignment transform. paper selects the
// paper's cap (uniform from [1, log n)); otherwise maxW is explicit.
type weightPlan struct {
	maxW  int32
	paper bool
	seed  uint64
}

// transform implements Transform over a name and a plan mutation.
type transform struct {
	name string
	f    func(p *buildPlan) error
}

func (t *transform) String() string           { return t.name }
func (t *transform) apply(p *buildPlan) error { return t.f(p) }

// Symmetrize adds the reverse of every edge, producing a symmetric
// (undirected) graph — the paper's "-Sym" inputs. Duplicates created by
// symmetrizing an already-bidirectional list are removed unless
// KeepDuplicates is also given.
func Symmetrize() Transform {
	return &transform{"sym", func(p *buildPlan) error { p.opt.Symmetrize = true; return nil }}
}

// KeepSelfLoops retains u->u edges instead of dropping them.
func KeepSelfLoops() Transform {
	return &transform{"selfloops", func(p *buildPlan) error { p.opt.KeepSelfLoops = true; return nil }}
}

// KeepDuplicates retains parallel edges instead of deduplicating.
func KeepDuplicates() Transform {
	return &transform{"multi", func(p *buildPlan) error { p.opt.KeepDuplicates = true; return nil }}
}

// UniformWeights assigns uniform random integer weights in [1, maxW] drawn
// deterministically from seed, replacing any weights the source carried.
func UniformWeights(maxW int32, seed uint64) Transform {
	return &transform{fmt.Sprintf("weights(max=%d,seed=%d)", maxW, seed), func(p *buildPlan) error {
		p.weights = &weightPlan{maxW: maxW, seed: seed}
		return nil
	}}
}

// PaperWeights assigns the paper's weight distribution — uniform random
// integers from [1, log n) — drawn deterministically from seed.
func PaperWeights(seed uint64) Transform {
	return &transform{fmt.Sprintf("paperweights(seed=%d)", seed), func(p *buildPlan) error {
		p.weights = &weightPlan{paper: true, seed: seed}
		return nil
	}}
}

// Relabel renames vertices through perm (old ID -> new ID) before the CSR is
// laid out. perm must be a permutation of [0, n) for the source's n; edges
// are rewritten in parallel.
func Relabel(perm []uint32) Transform {
	return &transform{fmt.Sprintf("relabel(n=%d)", len(perm)), func(p *buildPlan) error {
		if p.relabelByDegree {
			return fmt.Errorf("gbbs: Relabel conflicts with RelabelByDegree")
		}
		p.relabelPerm = perm
		return nil
	}}
}

// RelabelByDegree renames vertices in decreasing-degree order (ties broken
// by original ID), the standard preprocessing step for compressed graphs:
// frequent high-degree targets get small IDs, which shrinks the varint gap
// encoding.
func RelabelByDegree() Transform {
	return &transform{"degree-relabel", func(p *buildPlan) error {
		if p.relabelPerm != nil {
			return fmt.Errorf("gbbs: RelabelByDegree conflicts with Relabel")
		}
		p.relabelByDegree = true
		return nil
	}}
}

// EncodeCompressed emits the graph in the Ligra+ parallel-byte compressed
// representation instead of uncompressed CSR. blockSize <= 0 selects the
// default (64 neighbors per block). The built graph's dynamic type is
// *Compressed.
func EncodeCompressed(blockSize int) Transform {
	return &transform{fmt.Sprintf("compress(block=%d)", blockSize), func(p *buildPlan) error {
		p.compress = true
		p.blockSize = blockSize
		return nil
	}}
}
