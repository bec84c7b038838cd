// Package exporteddoc defines an analyzer enforcing the documentation bar
// on the public packages: every exported identifier — types, functions,
// methods on exported types, constants, variables, exported struct fields,
// and exported interface methods — must carry a godoc comment. It is the
// analyzer port of the retired internal/doccheck test helper and reports
// the same identifier descriptions ("func X", "field T.F", ...), so the
// thin test wrappers in gbbs and gbbs/serve keep failing with familiar
// messages when an undocumented export lands.
package exporteddoc

import (
	"go/ast"
	"go/token"

	"repro/internal/analysis/lintutil"
)

// scope lists the packages held to the documentation bar: the public,
// importable surfaces. Internal packages document themselves at whatever
// density their maintainers find readable.
var scope = map[string]bool{
	"repro/gbbs":         true,
	"repro/gbbs/serve":   true,
	"repro/gbbs/store":   true,
	"repro/internal/vfs": true,
}

const name = "exporteddoc"

// Analyzer flags undocumented exported identifiers in the public packages.
var Analyzer = &lintutil.Analyzer{
	Name: name,
	Doc:  "flag exported identifiers without godoc comments in the public packages",
	Run:  run,
}

func run(pass *lintutil.Pass) {
	if !scope[pass.Pkg.Path()] {
		return
	}
	report := func(pos token.Pos, format string, args ...any) {
		if !lintutil.Allowed(pass, pos, name) {
			pass.Reportf(pos, "undocumented exported identifier: "+format, args...)
		}
	}
	for _, file := range pass.Files {
		checkFile(file, report)
	}
}

type reporter func(pos token.Pos, format string, args ...any)

// checkFile walks one file's top-level declarations.
func checkFile(file *ast.File, report reporter) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				report(d.Pos(), "func %s", d.Name.Name)
			}
		case *ast.GenDecl:
			checkGenDecl(d, report)
		}
	}
}

// exportedReceiver reports whether a function is either a plain function or
// a method whose receiver type is itself exported (methods on unexported
// types are not API surface).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = u.X
		case *ast.IndexListExpr:
			t = u.X
		case *ast.Ident:
			return u.IsExported()
		default:
			return false
		}
	}
}

// checkGenDecl checks a type/const/var declaration group. A doc comment on
// the group covers its specs (the stdlib's grouped-const idiom); otherwise
// each exported spec needs its own.
func checkGenDecl(d *ast.GenDecl, report reporter) {
	groupDocumented := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if !groupDocumented && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type %s", s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok {
				checkFields(s.Name.Name, st, report)
			}
			if it, ok := s.Type.(*ast.InterfaceType); ok {
				checkInterface(s.Name.Name, it, report)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				if !groupDocumented && s.Doc == nil && s.Comment == nil {
					report(name.Pos(), "%s %s", d.Tok, name.Name)
				}
			}
		}
	}
}

// checkFields requires a doc or trailing comment on every exported field of
// an exported struct. Fields declared in one spec ("a, b int // comment")
// share their comment; embedded fields are exempt (the embedded type
// documents itself).
func checkFields(typeName string, st *ast.StructType, report reporter) {
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 || f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				report(name.Pos(), "field %s.%s", typeName, name.Name)
			}
		}
	}
}

// checkInterface requires a doc comment on every exported method of an
// exported interface.
func checkInterface(typeName string, it *ast.InterfaceType, report reporter) {
	for _, m := range it.Methods.List {
		if len(m.Names) == 0 {
			continue // embedded interface
		}
		if m.Doc != nil || m.Comment != nil {
			continue
		}
		for _, name := range m.Names {
			if name.IsExported() {
				report(name.Pos(), "method %s.%s", typeName, name.Name)
			}
		}
	}
}
