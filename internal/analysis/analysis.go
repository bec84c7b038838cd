// Package analysis collects the repository's invariant analyzers — the
// machine-checked form of the concurrency and determinism rules the paper
// reproduction depends on. Each analyzer lives in its own subpackage with
// analysistest-style fixtures under testdata/; cmd/gbbs-lint bundles them
// into a `go vet -vettool` compatible multichecker, and `make lint` runs
// that over the whole tree. ARCHITECTURE.md ("Enforced invariants") lists
// each rule and its escape hatch.
package analysis

import (
	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/ctxpoll"
	"repro/internal/analysis/exporteddoc"
	"repro/internal/analysis/nakedgo"
	"repro/internal/analysis/nondeterminism"
)

// All returns the full invariant suite in the order gbbs-lint runs it.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nakedgo.Analyzer,
		ctxpoll.Analyzer,
		atomicmix.Analyzer,
		nondeterminism.Analyzer,
		exporteddoc.Analyzer,
	}
}
