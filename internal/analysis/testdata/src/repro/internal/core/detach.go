package core

// Detach spawns a bare goroutine inside the algorithm layer: flagged by
// nakedgo (this fixture is the acceptance case "a bare go statement in
// internal/core").
func Detach(f func()) {
	go f() // want `bare go statement; concurrency must run on a parallel\.Scheduler`
}

// DetachAllowed demonstrates the per-site escape hatch.
func DetachAllowed(f func()) {
	//gbbs:lint-allow nakedgo fixture demonstrating the justified escape hatch
	go f()
}

// DetachUnjustified carries a directive with no justification: the
// directive is reported and suppresses nothing.
func DetachUnjustified(f func()) {
	// want+1 `gbbs:lint-allow nakedgo directive needs a justification`
	//gbbs:lint-allow nakedgo
	go f() // want `bare go statement; concurrency must run on a parallel\.Scheduler`
}
