// Package analyzertest is the repository's analysistest: it loads fixture
// or real packages from source, runs invariant analyzers over them
// (including their Requires graph and cross-package facts), and compares
// diagnostics against `// want` comments in fixture files.
//
// The stock golang.org/x/tools/go/analysis/analysistest cannot be used
// here: the build environment has no module proxy, and the GOROOT-vendored
// x/tools subset (see third_party/) ships the analysis core and the
// unitchecker driver but not analysistest or go/packages. This package
// reimplements the small part the repo needs on top of go/types'
// source importer:
//
//   - fixture packages live under internal/analysis/testdata/src, laid out
//     GOPATH-style (the directory path below src is the import path), so a
//     fixture can impersonate a scoped package such as repro/internal/core
//     and exercise the analyzers' package allowlists;
//   - real repository packages load through [RepoLoader], which maps the
//     module path onto the checkout — this is how the doc_lint_test.go
//     files in gbbs, gbbs/serve and gbbs/store run exporteddoc over the
//     actual packages in-process;
//   - standard-library imports are typechecked from GOROOT source, so the
//     whole harness works offline.
//
// Expected diagnostics are written at the end of the offending line as
//
//	code() // want `regexp`
//
// exactly like analysistest; several backquoted patterns may follow one
// `want`. [Check] may run several analyzers over one fixture package, with
// the wants describing their combined output — used where two invariants
// are demonstrated in the same impersonated package.
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
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// A Package is a loaded, typechecked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Pkg   *types.Package
	Files []*ast.File
	Info  *types.Info
	// deps are the loader-resolved (non-stdlib) imports, in load order;
	// analyzers with facts run over them first.
	deps []*Package
}

// A Loader typechecks packages from source, resolving non-stdlib import
// paths through a directory-mapping function and everything else through
// GOROOT source.
type Loader struct {
	Fset *token.FileSet
	// Resolve maps an import path to the directory holding its sources.
	// Returning false delegates the path to the stdlib source importer.
	Resolve func(importPath string) (dir string, ok bool)

	std  types.ImporterFrom
	pkgs map[string]*Package
}

// NewLoader returns a Loader resolving import paths through resolve.
func NewLoader(resolve func(string) (string, bool)) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Resolve: resolve,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*Package{},
	}
}

// FixtureLoader returns a Loader rooted at a GOPATH-style fixture tree:
// the import path p resolves to dir/p.
func FixtureLoader(dir string) *Loader {
	return NewLoader(func(path string) (string, bool) {
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
	return NewLoader(func(path string) (string, bool) {
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
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &Package{Path: path, Dir: dir}
	// Reserve the slot so mutually-importing fixtures fail loudly instead
	// of recursing forever.
	l.pkgs[path] = p
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
	// Record loader-resolved deps for fact propagation.
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
// Package has an empty types.Info, but loading is instant even for
// packages whose imports (net/http, ...) would be slow to typecheck from
// source.
func (l *Loader) LoadSyntax(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.Resolve(path)
	if !ok {
		return nil, fmt.Errorf("analyzertest: cannot resolve %q to a directory", path)
	}
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

// factStore is the harness's in-memory replacement for the driver's
// serialized fact files. Object identity works across packages because all
// packages in one Loader share one typechecker universe.
type factStore struct {
	objs map[factKey]analysis.Fact
	pkgs map[pkgFactKey]analysis.Fact
}

type factKey struct {
	obj types.Object
	typ reflect.Type
}

type pkgFactKey struct {
	pkg *types.Package
	typ reflect.Type
}

func newFactStore() *factStore {
	return &factStore{objs: map[factKey]analysis.Fact{}, pkgs: map[pkgFactKey]analysis.Fact{}}
}

func copyFact(dst, src analysis.Fact) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}

// Runner executes analyzers over packages of one Loader, carrying facts
// and memoized Requires results between runs.
type Runner struct {
	loader  *Loader
	facts   *factStore
	results map[runKey]interface{}
	ran     map[runKey]bool
}

type runKey struct {
	a   *analysis.Analyzer
	pkg *Package
}

// NewRunner returns a Runner over the given loader.
func NewRunner(l *Loader) *Runner {
	return &Runner{loader: l, facts: newFactStore(), results: map[runKey]interface{}{}, ran: map[runKey]bool{}}
}

// Analyze runs the analyzer (and, first, its Requires graph on the same
// package, and the analyzer itself on the package's loader-resolved
// dependencies so facts flow) and returns the diagnostics it reported on
// this package.
func (r *Runner) Analyze(a *analysis.Analyzer, pkg *Package) ([]analysis.Diagnostic, error) {
	// Facts flow bottom-up: analyze loader-resolved deps first.
	if len(a.FactTypes) > 0 {
		for _, dep := range pkg.deps {
			if _, err := r.Analyze(a, dep); err != nil {
				return nil, err
			}
		}
	}
	key := runKey{a, pkg}
	if r.ran[key] {
		return nil, nil // already analyzed (as someone's dependency)
	}
	r.ran[key] = true
	resultOf := map[*analysis.Analyzer]interface{}{}
	for _, req := range a.Requires {
		if _, err := r.Analyze(req, pkg); err != nil {
			return nil, err
		}
		resultOf[req] = r.results[runKey{req, pkg}]
	}
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       r.loader.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Pkg,
		TypesInfo:  pkg.Info,
		TypesSizes: types.SizesFor("gc", runtime.GOARCH),
		ResultOf:   resultOf,
		Report:     func(d analysis.Diagnostic) { diags = append(diags, d) },
		ReadFile:   os.ReadFile,
		ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
			if stored, ok := r.facts.objs[factKey{obj, reflect.TypeOf(fact)}]; ok {
				copyFact(fact, stored)
				return true
			}
			return false
		},
		ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
			r.facts.objs[factKey{obj, reflect.TypeOf(fact)}] = fact
		},
		ImportPackageFact: func(p *types.Package, fact analysis.Fact) bool {
			if stored, ok := r.facts.pkgs[pkgFactKey{p, reflect.TypeOf(fact)}]; ok {
				copyFact(fact, stored)
				return true
			}
			return false
		},
		ExportPackageFact: func(fact analysis.Fact) {
			r.facts.pkgs[pkgFactKey{pkg.Pkg, reflect.TypeOf(fact)}] = fact
		},
		AllObjectFacts:  func() []analysis.ObjectFact { return nil },
		AllPackageFacts: func() []analysis.PackageFact { return nil },
	}
	res, err := a.Run(pass)
	if err != nil {
		return nil, fmt.Errorf("analyzertest: %s on %s: %w", a.Name, pkg.Path, err)
	}
	r.results[key] = res
	return diags, nil
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
func Check(t *testing.T, l *Loader, analyzers []*analysis.Analyzer, path string) {
	t.Helper()
	pkg, err := l.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(l)
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		d, err := r.Analyze(a, pkg)
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, d...)
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
func SyntaxDiagnostics(t *testing.T, l *Loader, a *analysis.Analyzer, path string) []string {
	t.Helper()
	pkg, err := l.LoadSyntax(path)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := NewRunner(l).Analyze(a, pkg)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message))
	}
	sort.Strings(out)
	return out
}
