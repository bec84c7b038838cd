package main

import (
	"encoding/json"
	"fmt"

	"repro/gbbs"
	"repro/gbbs/serve"
	"repro/internal/xrand"
)

// The request scripts are pure functions of (seed, client, index): the same
// seed replays byte-identical requests in the same order, and the daemon
// only ever sees these generated bodies.

// Operation classes: what the serving layer's behaviour depends on.
const (
	classRunMiss   = "run_miss"   // executes an algorithm on a resident graph
	classRunHit    = "run_hit"    // answered from the result cache
	classJob       = "job"        // async submit, poll, fetch
	classBuildMiss = "build_miss" // never-seen graph spec: Engine.Build inside the request
	classUpdate    = "update"     // edge batch into a stored graph
	classVerify    = "verify"     // full-value query issued only to check answers
)

// op is one scripted request.
type op struct {
	Class   string
	Method  string
	Path    string
	Body    []byte
	Algo    string
	Threads int
	HotIdx  int // run_hit: which warmed fingerprint
}

// missAlgos are the algorithms fresh runs draw from: two traversals with a
// source, two whole-graph problems and one bucketed peeling.
var missAlgos = []string{"bfs", "cc", "kcore", "mis", "wbfs"}

// mixedGen generates the serve-mixed script.
type mixedGen struct {
	seed       uint64
	threads    int      // P
	source     string   // the preloaded graph
	transforms []string // its transforms
	srcs       []uint32 // vertices of its largest component
	missScale  int      // scale of the never-seen graphs
	hot        []serve.RunRequest
}

func newMixedGen(seed uint64, threads int, source string, transforms []string, missScale int, srcs []uint32) *mixedGen {
	g := &mixedGen{seed: seed, threads: threads, source: source, transforms: transforms, srcs: srcs, missScale: missScale}
	for i := 0; i < 16; i++ {
		algo := missAlgos[i%len(missAlgos)]
		g.hot = append(g.hot, serve.RunRequest{
			Source: g.source, Transforms: g.transforms, Algorithm: algo,
			Src: srcs[int(xrand.Hash64(seed^0x407, uint64(i))%uint64(len(srcs)))], Threads: 1,
			Seed: gbbs.Ptr(seed<<8 | uint64(i)), IncludeValue: i%2 == 1,
		})
	}
	return g
}

// freshRun is a run request no earlier request shares a fingerprint with:
// the seed field is unique per (client, index), so the result cache misses
// while the graph cache hits. A quarter ask for P threads — the whole
// admission budget, so they queue behind the other client — and a fifth
// want the O(n) value encoded.
func (g *mixedGen) freshRun(client, i int) (serve.RunRequest, string, int) {
	h := xrand.Hash64(g.seed^0x3a5, uint64(client)<<40|uint64(i))
	algo := missAlgos[h%uint64(len(missAlgos))]
	threads := 1
	if (h>>8)%4 == 0 {
		threads = g.threads
	}
	return serve.RunRequest{
		Source: g.source, Transforms: g.transforms, Algorithm: algo,
		Src:          g.srcs[(h>>16)%uint64(len(g.srcs))],
		Threads:      threads,
		Seed:         gbbs.Ptr(1<<40 | uint64(client)<<32 | uint64(i)),
		IncludeValue: (h>>40)%5 == 0,
	}, algo, threads
}

// op returns the i-th request of client's script: 50% fresh runs, 30%
// result-cache hits, 10% async jobs, 10% never-seen graphs.
func (g *mixedGen) op(client, i int) op {
	tenant := tenantOf(client)
	h := xrand.Hash64(g.seed^0x51c, uint64(client)<<40|uint64(i))
	switch draw := h % 100; {
	case draw < 50:
		req, algo, threads := g.freshRun(client, i)
		req.Tenant = tenant
		return op{Class: classRunMiss, Method: "POST", Path: "/v1/run", Body: mustJSON(req), Algo: algo, Threads: threads}
	case draw < 80:
		idx := int((h >> 8) % uint64(len(g.hot)))
		req := g.hot[idx]
		req.Tenant = tenant
		return op{Class: classRunHit, Method: "POST", Path: "/v1/run", Body: mustJSON(req), Algo: req.Algorithm, Threads: 1, HotIdx: idx}
	case draw < 90:
		req, algo, threads := g.freshRun(client, i)
		req.Tenant = tenant
		return op{Class: classJob, Method: "POST", Path: "/v1/jobs", Body: mustJSON(req), Algo: algo, Threads: threads}
	default:
		req := serve.RunRequest{
			Source:    fmt.Sprintf("rmat:scale=%d,factor=16,seed=%d", g.missScale, 1<<40|uint64(client)<<32|uint64(i)),
			Algorithm: "bfs", Threads: 1, Tenant: tenant,
		}
		return op{Class: classBuildMiss, Method: "POST", Path: "/v1/run", Body: mustJSON(req), Algo: "bfs", Threads: 1}
	}
}

func tenantOf(client int) string {
	if client%2 == 0 {
		return "gold"
	}
	return "bronze"
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types marshal by construction
	}
	return b
}

// edgeBatch is the i-th batch of the update script: size uniform random
// edges over n vertices, as the body of POST /v1/graphs/{name}/edges.
func edgeBatch(seed uint64, i int, n uint32, size int) []byte {
	edges := make([][]int64, size)
	for k := range edges {
		h := xrand.Hash64(seed^0xba7c, uint64(i)<<24|uint64(k))
		edges[k] = []int64{int64(uint32(h) % n), int64(uint32(h>>32) % n)}
	}
	return mustJSON(serve.EdgeBatchRequest{Edges: edges})
}

// readerGen generates the serve-update reader's script: queries against
// the stored graph while it changes, cycling incrcc and bfs at 1 and P
// threads, with every fifth request a result-cache hit on an unrelated
// resident graph (what a cheap read costs beside writes).
type readerGen struct {
	seed    uint64
	threads int
	srcs    []uint32 // vertices of the initial graph's largest component
	hot     serve.RunRequest
}

func (g *readerGen) op(i int) op {
	if i%5 == 4 {
		return op{Class: classRunHit, Method: "POST", Path: "/v1/run", Body: mustJSON(g.hot), Algo: g.hot.Algorithm, Threads: 1}
	}
	k := i - i/5 // index among the queries
	algo := []string{"incrcc", "bfs"}[k%2]
	threads := []int{1, g.threads}[(k/2)%2]
	req := serve.RunRequest{
		Graph: "g", Algorithm: algo, Threads: threads, Tenant: "bronze",
		// A fresh seed makes every query a result-cache miss even between
		// two batches (incrcc's answer does not depend on it).
		Seed: gbbs.Ptr(1<<40 | uint64(i)),
	}
	if algo == "bfs" {
		req.Src = g.srcs[xrand.Hash64(g.seed^0x4ead, uint64(i))%uint64(len(g.srcs))]
	}
	return op{Class: classRunMiss, Method: "POST", Path: "/v1/run", Body: mustJSON(req), Algo: algo, Threads: threads}
}
