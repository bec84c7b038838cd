// Package analyzertest is the repository's only analysis driver: it loads
// fixture or real packages from source, runs the invariant analyzers
// (internal/analysis/...) over them dependencies first so each analyzer's
// cross-package facts flow, and compares diagnostics against `// want`
// comments in fixture files. Everything runs in process under go test:
//
//   - fixture packages live under internal/analysis/testdata/src, laid out
//     GOPATH-style (the directory path below src is the import path), so a
//     fixture can impersonate a scoped package such as repro/internal/core
//     and exercise the analyzers' package allowlists;
//   - real repository packages load through [RepoLoader], which maps the
//     module path onto the checkout — this is how the whole-tree test in
//     internal/analysis (what `make lint` runs) and the doc_lint_test.go
//     files in gbbs, gbbs/serve and gbbs/store analyze the actual packages;
//   - only non-test .go files are loaded, so no analyzer sees a test;
//   - standard-library imports come from the toolchain's export data (the
//     "gc" importer), so even net/http costs no typechecking.
//
// Expected diagnostics are written at the end of the offending line as
//
//	code() // want `regexp`
//
// several backquoted patterns may follow one `want`. [Check] may run
// several analyzers over one fixture package, with the wants describing
// their combined output — used where two invariants are demonstrated in the
// same impersonated package.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/lintutil"
)

// A Package is a loaded, typechecked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Pkg   *types.Package
	Files []*ast.File
	Info  *types.Info
	// deps are the loader-resolved (non-stdlib) imports, in load order;
	// the runner analyzes them first.
	deps []*Package
}

// A Loader typechecks packages from source, resolving non-stdlib import
// paths through a directory-mapping function and everything else through
// the standard library's export data.
type Loader struct {
	Fset *token.FileSet
	// Resolve maps an import path to the directory holding its sources.
	// Returning false delegates the path to the stdlib importer.
	Resolve func(importPath string) (dir string, ok bool)

	std  types.ImporterFrom
	pkgs map[string]*Package
}

// newLoader returns a Loader resolving import paths through resolve.
func newLoader(resolve func(string) (string, bool)) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Resolve: resolve,
		std:     importer.ForCompiler(fset, "gc", nil).(types.ImporterFrom),
		pkgs:    map[string]*Package{},
	}
}

// FixtureLoader returns a Loader rooted at a GOPATH-style fixture tree:
// the import path p resolves to dir/p.
func FixtureLoader(dir string) *Loader {
	return newLoader(func(path string) (string, bool) {
		d := filepath.Join(dir, filepath.FromSlash(path))
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d, true
		}
		return "", false
	})
}

// RepoLoader returns a Loader resolving import paths below the module path
// modpath to directories of the checkout rooted at root.
func RepoLoader(root, modpath string) *Loader {
	return newLoader(func(path string) (string, bool) {
		if path == modpath {
			return root, true
		}
		if rel, ok := strings.CutPrefix(path, modpath+"/"); ok {
			return filepath.Join(root, filepath.FromSlash(rel)), true
		}
		return "", false
	})
}

// Load parses and typechecks the package with the given import path,
// caching the result.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.Resolve(path)
	if !ok {
		return nil, fmt.Errorf("analyzertest: cannot resolve %q to a directory", path)
	}
	p := &Package{Path: path, Dir: dir}
	// Reserve the slot so mutually-importing fixtures fail loudly instead
	// of recursing forever.
	l.pkgs[path] = p
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyzertest: typechecking %s: %w", path, err)
	}
	// Record loader-resolved deps so the runner analyzes them first.
	for _, f := range files {
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if dep, ok := l.pkgs[ipath]; ok && dep != p {
				p.deps = append(p.deps, dep)
			}
		}
	}
	p.Pkg, p.Files, p.Info = tpkg, files, info
	return p, nil
}

// LoadSyntax parses the package at path without typechecking it. Only
// valid for purely syntactic analyzers (exporteddoc): the resulting
// Package has an empty types.Info, but loading takes milliseconds where
// a typed load must first typecheck every repository package it imports.
func (l *Loader) LoadSyntax(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.Resolve(path)
	if !ok {
		return nil, fmt.Errorf("analyzertest: cannot resolve %q to a directory", path)
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	p := &Package{
		Path:  path,
		Dir:   dir,
		Pkg:   types.NewPackage(path, files[0].Name.Name),
		Files: files,
		Info:  &types.Info{},
	}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the non-test .go files of dir.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analyzertest: no Go files in %s", dir)
	}
	return files, nil
}

// loaderImporter adapts a Loader into the types.ImporterFrom the
// typechecker calls for each import.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if _, ok := l.Resolve(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if p.Pkg == nil {
			return nil, fmt.Errorf("analyzertest: import cycle through %q", path)
		}
		return p.Pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Runner executes analyzers over packages of one Loader, dependencies
// first, keeping each analyzer's facts and each run's diagnostics. Object
// identity holds across packages because all packages of one Loader share
// one typechecker universe.
type Runner struct {
	loader *Loader
	facts  map[*lintutil.Analyzer]map[types.Object]bool
	diags  map[runKey][]lintutil.Diagnostic
}

type runKey struct {
	a   *lintutil.Analyzer
	pkg *Package
}

// NewRunner returns a Runner over the given loader.
func NewRunner(l *Loader) *Runner {
	return &Runner{
		loader: l,
		facts:  map[*lintutil.Analyzer]map[types.Object]bool{},
		diags:  map[runKey][]lintutil.Diagnostic{},
	}
}

// Analyze runs the analyzer over the package's loader-resolved
// dependencies and then the package itself, each at most once, and returns
// the diagnostics it reported on this package.
func (r *Runner) Analyze(a *lintutil.Analyzer, pkg *Package) []lintutil.Diagnostic {
	key := runKey{a, pkg}
	if d, ok := r.diags[key]; ok {
		return d
	}
	for _, dep := range pkg.deps {
		r.Analyze(a, dep)
	}
	if r.facts[a] == nil {
		r.facts[a] = map[types.Object]bool{}
	}
	pass := &lintutil.Pass{
		Fset:      r.loader.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Pkg,
		TypesInfo: pkg.Info,
		Facts:     r.facts[a],
	}
	a.Run(pass)
	r.diags[key] = pass.Diagnostics
	return pass.Diagnostics
}

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile(`// want(\+\d+)?((?: ` + "`[^`]*`" + `)+)`)
var patRE = regexp.MustCompile("`([^`]*)`")

// wantsIn extracts the `// want` expectations from a package's comments.
// `// want+N` expects the diagnostic N lines below the comment — needed by
// doc-comment analyzers, where a same-line want comment would itself count
// as the identifier's documentation.
func (l *Loader) wantsIn(pkg *Package) ([]want, error) {
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := l.Fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					n := 0
					fmt.Sscanf(m[1], "+%d", &n)
					line += n
				}
				for _, pm := range patRE.FindAllStringSubmatch(m[2], -1) {
					re, err := regexp.Compile(pm[1])
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, want{pos.Filename, line, re})
				}
			}
		}
	}
	return wants, nil
}

// Check loads the fixture package at path with the loader, runs each
// analyzer over it, and reports any mismatch between the combined
// diagnostics and the package's `// want` expectations.
func Check(t *testing.T, l *Loader, analyzers []*lintutil.Analyzer, path string) {
	t.Helper()
	pkg, err := l.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(l)
	var diags []lintutil.Diagnostic
	for _, a := range analyzers {
		diags = append(diags, r.Analyze(a, pkg)...)
	}
	wants, err := l.wantsIn(pkg)
	if err != nil {
		t.Fatal(err)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		found := false
		for i, w := range wants {
			if !matched[i] && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// SyntaxDiagnostics parses (but does not typecheck) a package, so the
// wrapper tests in gbbs, gbbs/serve and gbbs/store stay fast, and returns a
// purely syntactic analyzer's findings as "file:line: message" strings
// sorted by position.
func SyntaxDiagnostics(t *testing.T, l *Loader, a *lintutil.Analyzer, path string) []string {
	t.Helper()
	pkg, err := l.LoadSyntax(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range NewRunner(l).Analyze(a, pkg) {
		pos := l.Fset.Position(d.Pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message))
	}
	sort.Strings(out)
	return out
}
