// Package nakedgo defines an analyzer banning bare go statements. The
// paper's work/depth accounting — and the engine's multi-tenant isolation —
// both assume that every unit of parallelism is executed and counted by a
// parallel.Scheduler; a goroutine spawned directly with `go` is invisible
// to the scheduler's worker accounting, is not interruptible through
// Poll/Attach, and survives Engine.Close. The two legitimate spawn sites
// (the worker pool itself and the serving layer's detached build) are
// allowlisted by file.
package nakedgo

import (
	"go/ast"
	"strings"

	"repro/internal/analysis/lintutil"
)

// allowFiles lists the files (matched by path suffix) permitted to contain
// bare go statements. Each entry must justify itself here, at the allowlist
// site:
//
//   - internal/parallel/pool.go: the worker pool IS the scheduler's spawn
//     site; every other goroutine in the process is meant to descend from
//     the ones created here.
//   - gbbs/serve/flight.go: the serving layer's one cache type detaches a
//     run from its first caller when constructed with a detach context —
//     only the graph cache is — so that a caller timing out does not cancel
//     the build for the other tenants waiting on the same entry; produce
//     recovers panics itself precisely because it may be detached.
//   - cmd/gbbs-serve/main.go: process-lifecycle goroutine waiting for
//     SIGINT/SIGTERM to drain the HTTP server; it manages the daemon, not
//     algorithm work, so no scheduler is in scope.
var allowFiles = []string{
	"internal/parallel/pool.go",
	"gbbs/serve/flight.go",
	"cmd/gbbs-serve/main.go",
}

const name = "nakedgo"

// Analyzer flags bare go statements outside the allowlisted spawn sites.
var Analyzer = &lintutil.Analyzer{
	Name: name,
	Doc: "flag bare go statements outside the scheduler's worker pool and the allowlisted detach sites; " +
		"all other concurrency must go through a parallel.Scheduler",
	Run: run,
}

func run(pass *lintutil.Pass) {
	lintutil.Inspect(pass, func(g *ast.GoStmt) {
		pos := g.Pos()
		fname := pass.Fset.Position(pos).Filename
		for _, suffix := range allowFiles {
			if strings.HasSuffix(fname, suffix) {
				return
			}
		}
		if lintutil.Allowed(pass, pos, name) {
			return
		}
		pass.Reportf(pos, "bare go statement; concurrency must run on a parallel.Scheduler so it is counted, cancellable, and closed with its engine (or allowlist the file in nakedgo with a justification)")
	})
}
