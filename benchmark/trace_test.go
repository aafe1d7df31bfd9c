package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "replay.batch", Start: 0, End: 100},
		// Overlapping children cover 10-50 once; the third is clipped to
		// the parent at 100.
		{ID: 2, Parent: 1, Name: "router.route", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.feed", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "core.sync", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "core.round", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"replay.batch": 50, "router.route": 20, "core.feed": 20, "core.sync": 30, "core.round": 10,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %d, want %d", name, self[name], d)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", 0, 0)
	tr.tag(sp, "flush")
	tr.end(sp)
	if sp != 0 {
		t.Fatalf("nil tracer returned span %d", sp)
	}
	tr = newTracer()
	root := tr.begin("root", 0, 7)
	child := tr.begin("child", root, 7)
	tr.end(child)
	tr.tag(root, "flush")
	tr.end(root)
	if got := tr.durations("root", "flush"); len(got) != 1 || tr.spans[child-1].Parent != root {
		t.Fatalf("spans = %+v", tr.spans)
	}
}
