package analysis_test

import (
	"testing"

	"repro/internal/analysis/analyzertest"
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/ctxpoll"
	"repro/internal/analysis/exporteddoc"
	"repro/internal/analysis/lintutil"
	"repro/internal/analysis/nakedgo"
	"repro/internal/analysis/nondeterminism"
)

// The fixtures live in testdata/src laid out GOPATH-style; packages under
// testdata/src/repro/... impersonate the real module's import paths so the
// analyzers' package scopes and allowlists apply to them unmodified.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		name      string
		analyzers []*lintutil.Analyzer
		path      string
	}{
		// The facade is held to the documentation bar.
		{"facade", []*lintutil.Analyzer{exporteddoc.Analyzer}, "repro/gbbs"},
		// Round loops (direct poll, cross-package fact, intra-package
		// fixpoint, infinite loops, bounded loops) plus a bare go statement.
		{"core", []*lintutil.Analyzer{ctxpoll.Analyzer, nakedgo.Analyzer}, "repro/internal/core"},
		// The helper package itself is in scope and stays clean.
		{"ligra", []*lintutil.Analyzer{ctxpoll.Analyzer}, "repro/internal/ligra"},
		{"atomicmix", []*lintutil.Analyzer{atomicmix.Analyzer}, "atomicmix/a"},
		{"atomicmix-clean", []*lintutil.Analyzer{atomicmix.Analyzer}, "atomicmix/clean"},
		{"nondeterminism", []*lintutil.Analyzer{nondeterminism.Analyzer}, "repro/internal/gen"},
		// Out-of-scope packages may read clocks and range over maps freely.
		{"nondeterminism-clean", []*lintutil.Analyzer{nondeterminism.Analyzer}, "nondet/clean"},
		{"nakedgo-clean", []*lintutil.Analyzer{nakedgo.Analyzer}, "nakedgo/clean"},
		// Out-of-scope packages may leave exports undocumented.
		{"exporteddoc-clean", []*lintutil.Analyzer{exporteddoc.Analyzer}, "exporteddoc/clean"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := analyzertest.FixtureLoader("testdata/src")
			analyzertest.Check(t, l, tc.analyzers, tc.path)
		})
	}
}
