// Package nondeterminism defines an analyzer guarding the repository's
// determinism contract: for a fixed seed, every build and algorithm package
// must produce byte-identical output across runs and across worker counts
// (the paper's "internally deterministic" property; determinism_test.go
// checks it dynamically, this analyzer checks the sources of
// nondeterminism statically).
//
// Inside the scoped packages it flags:
//
//   - wall-clock reads (time.Now and friends): timing belongs to the
//     measurement layers (gbbs's Result metadata, the benchmark), never
//     inside an algorithm or builder;
//   - any use of math/rand or math/rand/v2: the repository's randomness is
//     hash-based and splittable (internal/xrand) precisely so parallel
//     draws are reproducible; the global rand source is seeded per-process
//     and shared across goroutines;
//   - map iteration feeding an order-sensitive sink (append, a channel
//     send, or a Write/print call): Go randomizes map iteration order per
//     run, so such loops produce a differently-ordered output each time.
//     Map loops that only aggregate commutatively are fine and not
//     flagged.
package nondeterminism

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis/lintutil"
)

// scope lists the deterministic build/algorithm packages.
// Everything that must be byte-reproducible for a fixed seed is here. The
// deliberate omissions, justified at this allowlist site:
//
//   - repro/gbbs: hosts the measurement path — Result.Elapsed and
//     Result.BuildElapsed are wall-clock metadata by design (registry.go),
//     and the deterministic outputs it returns are produced by the scoped
//     packages below;
//   - repro/gbbs/serve, repro/cmd/..., repro/examples/...: serving and
//     CLI layers; cache aging, request timing and log timestamps are
//     inherently wall-clock;
//   - repro/internal/parallel: uses time only for the worker pool's idle
//     timeout, which affects goroutine lifetime, never algorithm output.
var scope = map[string]bool{
	"repro/internal/atomics":   true,
	"repro/internal/bucket":    true,
	"repro/internal/compress":  true,
	"repro/internal/core":      true,
	"repro/internal/gen":       true,
	"repro/internal/graph":     true,
	"repro/internal/hashtable": true,
	"repro/internal/ligra":     true,
	"repro/internal/prims":     true,
	"repro/internal/seqref":    true,
	"repro/internal/stats":     true,
	"repro/internal/xrand":     true,
}

// wallClock is the set of time-package functions that read the clock or
// create timers; any of them makes output timing-dependent.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTicker": true, "NewTimer": true,
}

const name = "nondeterminism"

// Analyzer flags sources of run-to-run nondeterminism in the deterministic
// build/algorithm packages.
var Analyzer = &lintutil.Analyzer{
	Name: name,
	Doc: "flag wall-clock reads, math/rand, and map-iteration-order-dependent output in the deterministic build/algorithm packages; " +
		"for a fixed seed their results must be byte-identical across runs and worker counts",
	Run: run,
}

func run(pass *lintutil.Pass) {
	if !scope[pass.Pkg.Path()] {
		return
	}
	lintutil.Inspect(pass, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ImportSpec:
			path, _ := strconv.Unquote(n.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				if !lintutil.Allowed(pass, n.Pos(), name) {
					pass.Reportf(n.Pos(), "deterministic package imports %s; use the seeded, splittable internal/xrand so results are reproducible for a fixed seed", path)
				}
			}
		case *ast.CallExpr:
			fn := lintutil.CalleeFunc(pass.TypesInfo, n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClock[fn.Name()] {
				return
			}
			if !lintutil.Allowed(pass, n.Pos(), name) {
				pass.Reportf(n.Pos(), "deterministic package reads the wall clock (time.%s); timing belongs to the measurement layer, not build/algorithm code", fn.Name())
			}
		case *ast.RangeStmt:
			checkMapRange(pass, n)
		}
	})
}

// checkMapRange flags a range over a map whose body feeds an
// order-sensitive sink.
func checkMapRange(pass *lintutil.Pass, loop *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(loop.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	sink := ""
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "a channel send"
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "append" {
					if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
						sink = "append"
					}
				}
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
					sink = name
				}
			}
		}
		return true
	})
	if sink == "" || lintutil.Allowed(pass, loop.Pos(), name) {
		return
	}
	pass.Reportf(loop.Pos(), "map iteration feeds %s: Go randomizes map iteration order, so this output is differently ordered each run; iterate over sorted keys instead", sink)
}
