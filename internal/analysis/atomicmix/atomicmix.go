// Package atomicmix defines an analyzer that is the static complement to
// the race detector: a struct field that is accessed through sync/atomic or
// internal/atomics anywhere must never also be read or written plainly.
// -race only catches interleavings a test actually exercises; mixing an
// atomic CAS with a plain read of the same field is a data race whether or
// not a schedule ever exhibits it, and on the paper's lock-free structures
// (bucketing, union-find parents, frontier flags) such a mix silently
// breaks the published-memory reasoning the algorithms depend on.
//
// The analyzer resolves every &x.f argument of a sync/atomic or
// internal/atomics call to the field object it names, then flags every
// other plain selector access to the same field in the package. Composite
// literal keys are exempt: initializing a field in a literal before the
// value is published is the constructor idiom, not a race. Fields of the
// sync/atomic wrapper types (atomic.Int64 etc.) are inherently safe — they
// have no plain-access syntax — and never trigger the check.
//
// Unexported fields can only be accessed in their defining package, so the
// per-package analysis is complete for them; exported fields are checked
// package by package.
package atomicmix

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"

	"repro/internal/analysis/lintutil"
)

const name = "atomicmix"

// Analyzer flags struct fields accessed both atomically and plainly.
var Analyzer = &lintutil.Analyzer{
	Name: name,
	Doc: "flag struct fields that are accessed through sync/atomic or internal/atomics in one place and read/written plainly in another; " +
		"every access to such a field must be atomic",
	Run: run,
}

// atomicPkgs are the packages whose functions make an &x.f argument an
// atomic access of field f.
var atomicPkgs = map[string]bool{
	"sync/atomic":           true,
	lintutil.AtomicsPkgPath: true,
}

func run(pass *lintutil.Pass) {
	// Pass 1: find every field whose address is taken directly as an
	// argument to an atomic operation. Remember the selector nodes so pass
	// 2 does not count them as plain accesses.
	atomicField := map[*types.Var]token.Pos{}
	atomicNodes := map[*ast.SelectorExpr]bool{}
	lintutil.Inspect(pass, func(call *ast.CallExpr) {
		fn := lintutil.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || !atomicPkgs[fn.Pkg().Path()] {
			return
		}
		for _, arg := range call.Args {
			unary, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok || unary.Op != token.AND {
				continue
			}
			sel, ok := ast.Unparen(unary.X).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if f := fieldOf(pass.TypesInfo, sel); f != nil {
				if _, seen := atomicField[f]; !seen {
					atomicField[f] = call.Pos()
				}
				atomicNodes[sel] = true
			}
		}
	})
	if len(atomicField) == 0 {
		return
	}

	// Pass 2: every other selector access to one of those fields is a
	// plain access. Composite-literal keys (constructor initialization
	// before publication) are not selector expressions and are naturally
	// exempt.
	type finding struct {
		pos   token.Pos
		field *types.Var
	}
	var findings []finding
	lintutil.Inspect(pass, func(sel *ast.SelectorExpr) {
		if atomicNodes[sel] {
			return
		}
		f := fieldOf(pass.TypesInfo, sel)
		if f == nil {
			return
		}
		if _, ok := atomicField[f]; !ok {
			return
		}
		if lintutil.Allowed(pass, sel.Pos(), name) {
			return
		}
		findings = append(findings, finding{sel.Pos(), f})
	})
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, f := range findings {
		at := pass.Fset.Position(atomicField[f.field])
		pass.Reportf(f.pos, "plain access to field %s, which is accessed atomically at %s; every access must go through sync/atomic or internal/atomics (or justify with //gbbs:lint-allow atomicmix)",
			fieldName(f.field), fmt.Sprintf("%s:%d", filepath.Base(at.Filename), at.Line))
	}
}

// fieldOf resolves a selector expression to the struct field it selects,
// or nil if it does not name a field.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// fieldName renders a field as Type.Field when the owning struct is named.
func fieldName(f *types.Var) string {
	return f.Name()
}
