package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/gbbs/serve"
)

func mixedScript(seed uint64, n int) []byte {
	srcs := []uint32{0, 3, 5, 8, 13, 21, 34}
	g := newMixedGen(seed, 2, "rmat:scale=10,factor=16,seed=1", []string{"sym"}, 8, srcs)
	var out bytes.Buffer
	for client := 0; client < 2; client++ {
		for i := 0; i < n; i++ {
			o := g.op(client, i)
			out.WriteString(o.Class + " " + o.Method + " " + o.Path + " ")
			out.Write(o.Body)
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}

func TestSameSeedReplaysTheSameBytes(t *testing.T) {
	if !bytes.Equal(mixedScript(7, 200), mixedScript(7, 200)) {
		t.Error("the mixed script differs between two generations from one seed")
	}
	if !bytes.Equal(edgeBatch(7, 3, 1024, 100), edgeBatch(7, 3, 1024, 100)) {
		t.Error("an edge batch differs between two generations from one seed")
	}
	a, b := &readerGen{seed: 7, threads: 2, srcs: []uint32{1, 2, 3}}, &readerGen{seed: 7, threads: 2, srcs: []uint32{1, 2, 3}}
	for i := 0; i < 50; i++ {
		if !bytes.Equal(a.op(i).Body, b.op(i).Body) {
			t.Fatalf("reader op %d differs between two generations from one seed", i)
		}
	}
}

func TestDifferentSeedsGiveDifferentInputs(t *testing.T) {
	if bytes.Equal(mixedScript(7, 200), mixedScript(8, 200)) {
		t.Error("seeds 7 and 8 generate the same mixed script")
	}
	if bytes.Equal(edgeBatch(7, 3, 1024, 100), edgeBatch(8, 3, 1024, 100)) {
		t.Error("seeds 7 and 8 generate the same edge batch")
	}
	if bytes.Equal(edgeBatch(7, 3, 1024, 100), edgeBatch(7, 4, 1024, 100)) {
		t.Error("batches 3 and 4 of one seed are the same")
	}
}

func TestMixedScriptHasTheStatedMix(t *testing.T) {
	g := newMixedGen(1, 2, "rmat:scale=10,factor=16,seed=1", []string{"sym"}, 8, []uint32{0, 1, 2})
	const n = 20000
	count := make(map[string]int)
	pThreads, withValue, misses := 0, 0, 0
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		o := g.op(i%2, i)
		count[o.Class]++
		if o.Class != classRunMiss {
			continue
		}
		misses++
		var req serve.RunRequest
		if err := json.Unmarshal(o.Body, &req); err != nil {
			t.Fatal(err)
		}
		if req.Threads == 2 {
			pThreads++
		}
		if req.IncludeValue {
			withValue++
		}
		if seen[*req.Seed] {
			t.Fatalf("fresh run %d repeats seed %d: it would hit the result cache", i, *req.Seed)
		}
		seen[*req.Seed] = true
		if want := tenantOf(i % 2); req.Tenant != want {
			t.Fatalf("op %d of client %d has tenant %q, want %q", i, i%2, req.Tenant, want)
		}
	}
	within := func(name string, got int, of int, share float64) {
		if d := float64(got)/float64(of) - share; d > 0.02 || d < -0.02 {
			t.Errorf("%s: %d of %d, want about %.0f%%", name, got, of, share*100)
		}
	}
	within(classRunMiss, count[classRunMiss], n, 0.50)
	within(classRunHit, count[classRunHit], n, 0.30)
	within(classJob, count[classJob], n, 0.10)
	within(classBuildMiss, count[classBuildMiss], n, 0.10)
	within("P-thread asks", pThreads, misses, 0.25)
	within("include_value", withValue, misses, 0.20)
}

func TestReaderCyclesAlgorithmsAndThreads(t *testing.T) {
	g := &readerGen{seed: 1, threads: 2, srcs: []uint32{4, 5, 6}, hot: serve.RunRequest{Source: "rmat:8", Algorithm: "bfs"}}
	classes := make(map[execKey]int)
	hits := 0
	for i := 0; i < 100; i++ {
		o := g.op(i)
		if o.Class == classRunHit {
			hits++
			continue
		}
		classes[execKey{o.Algo, o.Threads, false}]++
	}
	if hits != 20 {
		t.Errorf("%d hits in 100 reader ops, want 20", hits)
	}
	for _, k := range []execKey{{"incrcc", 1, false}, {"bfs", 1, false}, {"incrcc", 2, false}, {"bfs", 2, false}} {
		if classes[k] != 20 {
			t.Errorf("class %+v has %d ops, want 20", k, classes[k])
		}
	}
}
