package serve_test

import (
	"testing"

	"repro/internal/analysis/analyzertest"
	"repro/internal/analysis/exporteddoc"
)

// TestExportedIdentifiersDocumented enforces the documentation bar on the
// serving layer: every exported identifier must carry a godoc comment. It is
// a thin wrapper over the exporteddoc analyzer, the same check `make lint`
// runs over the whole tree.
func TestExportedIdentifiersDocumented(t *testing.T) {
	l := analyzertest.RepoLoader("../..", "repro")
	for _, d := range analyzertest.SyntaxDiagnostics(t, l, exporteddoc.Analyzer, "repro/gbbs/serve") {
		t.Error(d)
	}
}
