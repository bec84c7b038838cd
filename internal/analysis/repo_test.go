package analysis_test

import (
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analyzertest"
)

// TestRepoHasNoFindings runs the full invariant suite over every package of
// the module — the benchmark's nested module under benchmark/ included —
// and fails on any finding. `make lint` runs exactly this test.
func TestRepoHasNoFindings(t *testing.T) {
	const root = "../.."
	l := analyzertest.RepoLoader(root, "repro")
	r := analyzertest.NewRunner(l)
	for _, p := range repoPackages(t, root) {
		pkg, err := l.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range analysis.All() {
			for _, d := range r.Analyze(a, pkg) {
				t.Errorf("%s: %s: %s", l.Fset.Position(d.Pos), a.Name, d.Message)
			}
		}
	}
}

// repoPackages lists the import path of every directory below root that
// holds non-test Go files, skipping testdata and hidden directories as the
// go command does.
func repoPackages(t *testing.T, root string) []string {
	var paths []string
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return err
		}
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				rel, err := filepath.Rel(root, dir)
				if err != nil {
					return err
				}
				paths = append(paths, path.Join("repro", filepath.ToSlash(rel)))
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}
