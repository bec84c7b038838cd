// Package ctxpoll defines an analyzer enforcing the cancellation-poll
// invariant on algorithm round loops. The engine cancels an in-flight
// algorithm cooperatively: Scheduler.Poll panics with a stop token when the
// attached context is done, and RecoverStop converts it to an error at the
// API boundary. That only works if every round loop — the while-style loop
// driving an unbounded number of EdgeMap/prims rounds — actually calls
// Poll (directly or through a helper that does) each iteration. A round
// loop with no reachable poll spins until natural convergence after the
// caller has long since timed out.
//
// The analyzer flags while-style loops (`for {` / `for cond {`) in the
// scoped algorithm packages whose body performs scheduler work (calls a
// function or method whose signature carries a *parallel.Scheduler, or a
// state struct holding one) but can complete an iteration without reaching
// a poll. Whether a helper polls is computed transitively within each
// package and kept in the analyzer's facts, which the runner carries from a
// package's imports to the package itself, so a loop that polls via e.g. a
// wrapper around Poll in another package is recognized without any
// allowlist.
//
// Bounded three-clause loops, pure spin/chase loops over atomics, and
// loops that do no scheduler work are out of scope: the invariant is
// "polls cancellation between rounds", and a loop that issues no parallel
// work per iteration is not a round loop.
package ctxpoll

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/lintutil"
)

// scope lists the packages whose round loops are checked: the Ligra layer
// and the paper's algorithm suite, where every registered algorithm's
// driver loop lives. Facts about which helpers poll are computed for every
// package so the check sees through cross-package helpers.
var scope = map[string]bool{
	"repro/internal/core":  true,
	"repro/internal/ligra": true,
}

const name = "ctxpoll"

// Analyzer flags round loops that cannot be interrupted by cancellation.
var Analyzer = &lintutil.Analyzer{
	Name: name,
	Doc: "flag while-style round loops in algorithm packages that issue scheduler work but never reach a Scheduler.Poll, " +
		"so context cancellation cannot interrupt them between rounds",
	Run: run,
}

// run marks in pass.Facts every function that always reaches a
// Scheduler.Poll (directly or through its callees) when executed, then
// checks the round loops of scoped packages against those marks.
func run(pass *lintutil.Pass) {
	// Gather every function declaration and, per declaration, the called
	// functions (lexically, including inside closures: a poll inside a
	// ForRange body is still executed every round).
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	// pollsCall reports whether a single call expression reaches a poll,
	// given the current (possibly still-growing) set of polling functions:
	// those of the imports, and this package's found so far.
	pollsCall := func(call *ast.CallExpr) bool {
		fn := lintutil.CalleeFunc(pass.TypesInfo, call)
		return fn != nil && (isSchedulerPoll(fn) || pass.Facts[fn])
	}
	bodyPolls := func(body ast.Node) bool {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && pollsCall(call) {
				found = true
				return false
			}
			return true
		})
		return found
	}

	// Fixpoint over the package's call graph: a declaration polls if its
	// body reaches a poll, possibly through another declaration in this
	// package that polls.
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if !pass.Facts[fn] && bodyPolls(fd.Body) {
				pass.Facts[fn] = true
				changed = true
			}
		}
	}

	if !scope[pass.Pkg.Path()] {
		return
	}
	for _, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Init != nil || loop.Post != nil {
				return true
			}
			if !bodyDoesSchedulerWork(pass, loop.Body) || bodyPolls(loop.Body) {
				return true
			}
			if lintutil.Allowed(pass, loop.Pos(), name) {
				return true
			}
			pass.Reportf(loop.Pos(), "round loop issues scheduler work but never reaches a cancellation poll; call Poll (or a polling helper) each iteration so Stop/context cancellation can interrupt it between rounds")
			return true
		})
	}
}

// isSchedulerPoll reports whether fn is (*parallel.Scheduler).Poll.
func isSchedulerPoll(fn *types.Func) bool {
	if fn.Name() != "Poll" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return lintutil.IsSchedulerType(sig.Recv().Type())
}

// bodyDoesSchedulerWork reports whether the loop body contains a call that
// runs on a scheduler: a callee whose receiver or a parameter carries a
// *parallel.Scheduler.
func bodyDoesSchedulerWork(pass *lintutil.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := lintutil.CalleeFunc(pass.TypesInfo, call); fn != nil {
			if sig, ok := fn.Type().(*types.Signature); ok && lintutil.SignatureMentionsScheduler(sig) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
