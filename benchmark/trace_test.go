package main

import "testing"

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		// Two children that overlap each other (parallel parts): they cover
		// [10,50), not 30+30.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},
		// A child nested inside another child's interval adds nothing.
		{ID: 3, Parent: 0, Name: "c", Start: 25, End: 30},
		// A disjoint child.
		{ID: 4, Parent: 0, Name: "d", Start: 60, End: 70},
		// A child that outlives the parent (a detached build) is clipped.
		{ID: 5, Parent: 0, Name: "e", Start: 90, End: 150},
		// A grandchild counts against its own parent only.
		{ID: 6, Parent: 1, Name: "a.inner", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (40 + 10 + 10), // [10,50) + [60,70) + [90,100)
		30 - 10,
		30, 5, 10, 60, 10,
	}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], w)
		}
	}
}

func TestSelfByNameSumsInMilliseconds(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 2e6},
		{ID: 1, Parent: -1, Name: "run", Start: 3e6, End: 4e6},
		{ID: 2, Parent: 0, Name: "io", Start: 0, End: 5e5},
	}
	got := selfByName(spans)
	if got["run"] != 2.5 || got["io"] != 0.5 {
		t.Errorf("selfByName = %v, want run 2.5 io 0.5", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer returned id %d and spans %v", id, tr.snapshot())
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, 7)
	child := tr.begin("child", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Start > spans[1].Start || spans[1].End > spans[0].End {
		t.Errorf("child [%d,%d] not inside root [%d,%d]", spans[1].Start, spans[1].End, spans[0].Start, spans[0].End)
	}
}
