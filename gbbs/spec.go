package gbbs

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// This file parses the textual source/transform specs that describe a graph
// input everywhere outside Go code: the CLI drivers' -source/-transform
// flags (cmd/gbbs-run, cmd/gbbs-gen), the serving API's RunRequest and the
// benchmark's workloads all speak it:
//
//	-source "rmat:scale=18,factor=16,seed=1" -transform "sym;paperweights;compress"
//
// An element is "kind" or "kind:key=val,..."; every argument is optional
// unless noted and has a default. The first argument may omit its key, in
// which case it binds to the kind's first key as listed in ParseSource and
// ParseTransforms: "rmat:18" is "rmat:scale=18", "file:g.adj" is
// "file:path=g.adj", "compress:64" is "compress:block=64". Kinds without
// arguments reject a bare value like any other unknown argument.

// specArgs holds the arguments of one spec element and reads them for the
// element's parse case, which calls int/uint64/float/bool/str once per key
// its kind accepts, in a fixed order. That one list of reads is the kind's
// whole schema: a bare leading value binds to the first key read, an
// argument no read asked for is rejected, and a malformed value fails the
// element. A read that fails returns its default and keeps only the first
// error, which done reports.
type specArgs struct {
	kind string
	bare *string           // a leading value given without a key
	vals map[string]string // key=value arguments
	read []string          // keys read so far, in order
	used int               // entries of vals some read asked for
	err  error             // first bad value
}

// parseSpecElement splits "kind:k1=v1,k2=v2" (the args part optional); only
// the first argument may omit its key.
func parseSpecElement(spec string) (*specArgs, error) {
	kind, rest, hasArgs := strings.Cut(spec, ":")
	a := &specArgs{kind: strings.TrimSpace(kind), vals: map[string]string{}, read: make([]string, 0, 4)}
	if a.kind == "" {
		return nil, fmt.Errorf("gbbs: empty spec element %q", spec)
	}
	if !hasArgs || strings.TrimSpace(rest) == "" {
		return a, nil
	}
	for i, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch {
		case !ok && i == 0:
			a.bare = &k
		case !ok || k == "":
			return nil, fmt.Errorf("gbbs: spec argument %q is not key=value", kv)
		default:
			if _, dup := a.vals[k]; dup {
				return nil, fmt.Errorf("gbbs: spec argument %q given twice", k)
			}
			a.vals[k] = v
		}
	}
	return a, nil
}

// get returns key's raw value, binding the bare leading value to the
// element's first read.
func (a *specArgs) get(key string) (string, bool) {
	if len(a.read) == 0 && a.bare != nil {
		if _, dup := a.vals[key]; dup {
			a.fail(fmt.Errorf("gbbs: spec argument %q given twice", key))
		} else {
			a.vals[key] = *a.bare
		}
		a.bare = nil
	}
	a.read = append(a.read, key)
	v, ok := a.vals[key]
	if ok {
		a.used++
	}
	return v, ok
}

func (a *specArgs) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

func (a *specArgs) int(key string, def int) int {
	v, ok := a.get(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	switch {
	case err != nil:
		a.fail(fmt.Errorf("gbbs: spec argument %s=%q is not an integer", key, v))
	// Every integer spec argument is a size, multiplier or block length: a
	// negative value is never meaningful, and letting one through hands
	// make() a negative length deep inside a generator.
	case n < 0:
		a.fail(fmt.Errorf("gbbs: spec argument %s=%q must not be negative", key, v))
	default:
		return n
	}
	return def
}

func (a *specArgs) uint64(key string, def uint64) uint64 {
	v, ok := a.get(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		a.fail(fmt.Errorf("gbbs: spec argument %s=%q is not an unsigned integer", key, v))
		return def
	}
	return n
}

func (a *specArgs) float(key string, def float64) float64 {
	v, ok := a.get(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		a.fail(fmt.Errorf("gbbs: spec argument %s=%q is not a number", key, v))
		return def
	}
	return f
}

func (a *specArgs) bool(key string, def bool) bool {
	v, ok := a.get(key)
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		a.fail(fmt.Errorf("gbbs: spec argument %s=%q is not a bool", key, v))
		return def
	}
	return b
}

// str reads a required, non-empty string argument.
func (a *specArgs) str(key string) string {
	v, _ := a.get(key)
	if v == "" {
		a.fail(fmt.Errorf("gbbs: spec %q needs %s=", a.kind, key))
	}
	return v
}

// done reports the element's first bad value, or else an argument that no
// read asked for, so a typo ("scal=18") fails loudly instead of silently
// building a default-sized graph.
func (a *specArgs) done() error {
	if a.err != nil || (a.bare == nil && a.used == len(a.vals)) {
		return a.err
	}
	accepts := strings.Join(a.read, ", ")
	if accepts == "" {
		accepts = "no arguments"
	}
	if a.bare != nil {
		return fmt.Errorf("gbbs: spec %q does not accept argument %q (accepts %s)", a.kind, *a.bare, accepts)
	}
	for _, k := range slices.Sorted(maps.Keys(a.vals)) {
		if !slices.Contains(a.read, k) {
			return fmt.Errorf("gbbs: spec %q does not accept argument %q (accepts %s)", a.kind, k, accepts)
		}
	}
	return nil
}

// ParseSource parses a source spec of the form "kind:key=val,...". Kinds
// and their arguments (all optional, with defaults):
//
//	rmat:scale=16,factor=16,seed=1     R-MAT power-law generator
//	torus:side=32                      3D torus (one direction per dim)
//	er:n=65536,m=1048576,seed=1        Erdős–Rényi random edges
//	ba:n=65536,k=16,seed=1             Barabási–Albert preferential attachment
//	ws:n=65536,k=16,p=0.1,seed=1       Watts–Strogatz small world
//	grid:side=32                       2D grid
//	path:n=1024  cycle:n=1024  star:n=1024  complete:n=1024  tree:n=1024
//	file:path=g.adj,sym=true           (Weighted)AdjacencyGraph text file (path required)
//	bin:path=g.bin                     compact binary graph file (path required)
//
// The returned source's String method renders the spec canonically with
// every argument spelled out ("rmat:18" → "rmat(scale=18,factor=16,seed=1)"),
// which is how the serving layer's graph cache recognizes two differently
// written specs as the same input.
func ParseSource(spec string) (GraphSource, error) {
	a, err := parseSpecElement(spec)
	if err != nil {
		return nil, err
	}
	var src GraphSource
	switch a.kind {
	case "rmat":
		src = RMAT(a.int("scale", 16), a.int("factor", 16), a.uint64("seed", 1))
	case "torus":
		src = Torus(a.int("side", 32))
	case "er":
		src = Random(a.int("n", 1<<16), a.int("m", 1<<20), a.uint64("seed", 1))
	case "ba":
		src = Preferential(a.int("n", 1<<16), a.int("k", 16), a.uint64("seed", 1))
	case "ws":
		src = SmallWorld(a.int("n", 1<<16), a.int("k", 16), a.float("p", 0.1), a.uint64("seed", 1))
	case "grid":
		src = Grid(a.int("side", 32))
	case "path":
		src = Path(a.int("n", 1024))
	case "cycle":
		src = Cycle(a.int("n", 1024))
	case "star":
		src = Star(a.int("n", 1024))
	case "complete":
		src = Complete(a.int("n", 1024))
	case "tree":
		src = Tree(a.int("n", 1024))
	case "file":
		src = AdjacencyFile(a.str("path"), a.bool("sym", true))
	case "bin":
		src = BinaryFile(a.str("path"))
	default:
		return nil, fmt.Errorf("gbbs: unknown source kind %q", a.kind)
	}
	if err := a.done(); err != nil {
		return nil, err
	}
	return src, nil
}

// transformAlias maps accepted long spellings of transform kinds to their
// canonical short names, so declarative clients can write the transform's
// full name ("symmetrize") as well as the CLI shorthand ("sym").
var transformAlias = map[string]string{
	"symmetrize":      "sym",
	"self-loops":      "selfloops",
	"multi-edges":     "multi",
	"relabel":         "degree-relabel",
	"uniform-weights": "weights",
	"paper-weights":   "paperweights",
}

// ParseTransforms parses a semicolon-separated transform spec; each element
// is "kind" or "kind:key=val,...". Kinds, their defaults and their accepted
// long spellings:
//
//	sym                    symmetrize        Symmetrize
//	selfloops              self-loops        KeepSelfLoops
//	multi                  multi-edges       KeepDuplicates
//	weights:max=8,seed=1   uniform-weights   UniformWeights
//	paperweights:seed=1    paper-weights     PaperWeights
//	degree-relabel         relabel           RelabelByDegree
//	compress:block=0       (0 selects 64)    EncodeCompressed
//
// An empty spec returns no transforms.
func ParseTransforms(spec string) ([]Transform, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Transform
	for _, elem := range strings.Split(spec, ";") {
		if strings.TrimSpace(elem) == "" {
			continue
		}
		a, err := parseSpecElement(elem)
		if err != nil {
			return nil, err
		}
		if canonical, ok := transformAlias[a.kind]; ok {
			a.kind = canonical
		}
		var tf Transform
		switch a.kind {
		case "sym":
			tf = Symmetrize()
		case "selfloops":
			tf = KeepSelfLoops()
		case "multi":
			tf = KeepDuplicates()
		case "weights":
			tf = UniformWeights(int32(a.int("max", 8)), a.uint64("seed", 1))
		case "paperweights":
			tf = PaperWeights(a.uint64("seed", 1))
		case "degree-relabel":
			tf = RelabelByDegree()
		case "compress":
			tf = EncodeCompressed(a.int("block", 0))
		default:
			return nil, fmt.Errorf("gbbs: unknown transform %q", a.kind)
		}
		if err := a.done(); err != nil {
			return nil, err
		}
		out = append(out, tf)
	}
	return out, nil
}
