// Package analysis collects the repository's invariant analyzers — the
// machine-checked form of the concurrency and determinism rules the paper
// reproduction depends on. Each analyzer lives in its own subpackage,
// written against lintutil's small analysis core, with `// want` fixtures
// under testdata/. The in-process driver in analyzertest is the only way
// they run: this package's tests check every analyzer against its fixtures
// and run the whole suite over every package of the module, which is what
// `make lint` does. ARCHITECTURE.md ("Enforced invariants") lists each rule
// and its escape hatch.
package analysis

import (
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/ctxpoll"
	"repro/internal/analysis/exporteddoc"
	"repro/internal/analysis/lintutil"
	"repro/internal/analysis/nakedgo"
	"repro/internal/analysis/nondeterminism"
)

// All returns the full invariant suite.
func All() []*lintutil.Analyzer {
	return []*lintutil.Analyzer{
		nakedgo.Analyzer,
		ctxpoll.Analyzer,
		atomicmix.Analyzer,
		nondeterminism.Analyzer,
		exporteddoc.Analyzer,
	}
}
