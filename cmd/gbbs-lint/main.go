// gbbs-lint is the repository's invariant checker: a `go vet -vettool`
// compatible multichecker bundling the analyzers in internal/analysis
// (nakedgo, ctxpoll, atomicmix, nondeterminism, exporteddoc). Run it
// through the vet driver so packages are loaded, facts flow between them,
// and exit status follows vet conventions:
//
//	go build -o bin/gbbs-lint ./cmd/gbbs-lint
//	go vet -vettool=bin/gbbs-lint ./...
//
// `make lint` does exactly that. Individual analyzers can be selected or
// configured with vet-style flags, e.g.
//
//	go vet -vettool=bin/gbbs-lint -nakedgo ./...
//	go vet -vettool=bin/gbbs-lint -ctxpoll.packages=repro/internal/core ./...
//
// See ARCHITECTURE.md, "Enforced invariants", for the rule each analyzer
// encodes and its escape hatch.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"repro/internal/analysis"
)

func main() {
	unitchecker.Main(analysis.All()...)
}
