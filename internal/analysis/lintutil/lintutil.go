// Package lintutil holds the pieces shared by the repository's invariant
// analyzers (internal/analysis/...): the small analysis core they are
// written against (Analyzer, Pass, Diagnostic), the //gbbs:lint-allow
// suppression directive, and recognition of the scheduler types that the
// concurrency invariants are phrased in terms of.
//
// The directive is the per-site escape hatch documented in ARCHITECTURE.md
// ("Enforced invariants"): a comment of the form
//
//	//gbbs:lint-allow <analyzer> <justification>
//
// on the flagged line, or on the line immediately above it, suppresses that
// analyzer's diagnostic at that site. The justification is mandatory; a
// directive without one is itself reported.
package lintutil

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer checks one invariant, one typechecked package at a time.
type Analyzer struct {
	Name string // short identifier, also the //gbbs:lint-allow key
	Doc  string // the invariant, in one paragraph
	Run  func(*Pass)
}

// A Pass is one analyzer's view of one package. The runner hands out
// packages dependencies first, so Facts already holds what the analyzer
// recorded while analyzing the package's imports.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File // the package's non-test files
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is the analyzer's cross-package memory: objects it has marked,
	// shared by every package of one run. ctxpoll marks the functions that
	// always reach a poll.
	Facts map[types.Object]bool
	// Diagnostics collects what Reportf reports.
	Diagnostics []Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Diagnostics = append(p.Diagnostics, Diagnostic{pos, fmt.Sprintf(format, args...)})
}

// Inspect calls visit on every node of type N in the package's files, in
// source order.
func Inspect[N ast.Node](pass *Pass, visit func(N)) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if x, ok := n.(N); ok {
				visit(x)
			}
			return true
		})
	}
}

// SchedulerPkgPath is the import path of the fork-join runtime every
// concurrency invariant is phrased in terms of.
const SchedulerPkgPath = "repro/internal/parallel"

// AtomicsPkgPath is the repository's wrapper package over sync/atomic.
const AtomicsPkgPath = "repro/internal/atomics"

// directivePrefix introduces a suppression comment.
const directivePrefix = "//gbbs:lint-allow"

// Allowed reports whether a //gbbs:lint-allow directive for the named
// analyzer covers pos: the directive may sit on the same line as pos or on
// the line immediately above. A directive whose analyzer name matches but
// that carries no justification text is reported as a diagnostic itself and
// does not suppress anything.
func Allowed(pass *Pass, pos token.Pos, name string) bool {
	file := fileFor(pass, pos)
	if file == nil {
		return false
	}
	line := pass.Fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
			fields := strings.Fields(rest)
			if len(fields) == 0 || fields[0] != name {
				continue
			}
			cline := pass.Fset.Position(c.Pos()).Line
			if cline != line && cline != line-1 {
				continue
			}
			if len(fields) < 2 {
				pass.Reportf(c.Pos(), "gbbs:lint-allow %s directive needs a justification", name)
				return false
			}
			return true
		}
	}
	return false
}

// fileFor returns the *ast.File of pass.Files containing pos, or nil.
func fileFor(pass *Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// IsSchedulerType reports whether t is parallel.Scheduler or
// *parallel.Scheduler.
func IsSchedulerType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Scheduler" && obj.Pkg() != nil && obj.Pkg().Path() == SchedulerPkgPath
}

// CarriesScheduler reports whether t is a scheduler, or a (pointer to a)
// named struct with a scheduler-typed field — the "algorithm state" shape
// (e.g. core's msfState) whose methods do parallel work through the carried
// scheduler.
func CarriesScheduler(t types.Type) bool {
	if IsSchedulerType(t) {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if IsSchedulerType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// SignatureMentionsScheduler reports whether the function signature takes a
// scheduler anywhere an algorithm would thread one: receiver, parameter, or
// a parameter that carries one.
func SignatureMentionsScheduler(sig *types.Signature) bool {
	if recv := sig.Recv(); recv != nil && CarriesScheduler(recv.Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if CarriesScheduler(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// CalleeFunc resolves the *types.Func a call expression invokes, looking
// through parentheses; nil for calls of function values, builtins, and
// type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
