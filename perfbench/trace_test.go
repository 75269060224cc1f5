package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	// root [0,100] with children [10,30] and [20,50] (overlapping, union
	// 40) and [90,120] (clipped to 10); grandchild [12,14] belongs to the
	// first child only.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "a", Start: 20, End: 50, Parent: 0},
		{Name: "b", Start: 90, End: 120, Parent: 0},
		{Name: "c", Start: 12, End: 14, Parent: 1},
	}
	got := selfTimes(spans, 0)
	want := map[string]float64{"root": 50e-9, "a": 48e-9, "b": 30e-9, "c": 2e-9}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-15 {
			t.Errorf("self[%s] = %v, want %v", k, got[k], w)
		}
	}
}

func TestSelfTimeWithBaseOffset(t *testing.T) {
	// The same call recorded after 3 earlier spans: parents are
	// absolute indices.
	spans := []span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "x", Start: 2, End: 6, Parent: 3},
	}
	got := selfTimes(spans, 3)
	if math.Abs(got["root"]-6e-9) > 1e-15 || math.Abs(got["x"]-4e-9) > 1e-15 {
		t.Fatalf("self = %v", got)
	}
}

func TestTracerNestingAndOff(t *testing.T) {
	tr := newTracer(true)
	tr.startCall(7)
	r := tr.begin("root", -1)
	c := tr.begin("child", 2)
	tr.count("n", 3)
	tr.end(c)
	tr.end(r)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[1].Call != 7 || tr.spans[1].Shard != 2 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.counts["n"] != 3 {
		t.Fatalf("counts = %v", tr.counts)
	}
	if got := tr.callSpans(7); len(got) != 2 {
		t.Fatalf("callSpans = %v", got)
	}
	off := newTracer(false)
	off.end(off.begin("x", -1))
	off.count("n", 1)
	if len(off.spans) != 0 || len(off.counts) != 0 {
		t.Fatal("a tracer that is off must record nothing")
	}
}

func TestParallelTimeAndImbalance(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1, Shard: -1},
		{Name: "place", Start: 0, End: 30, Parent: 0, Shard: 0},
		{Name: "inner", Start: 0, End: 10, Parent: 1, Shard: 0},
		{Name: "place", Start: 30, End: 40, Parent: 0, Shard: 1},
	}
	if got := parallelTime(spans, 0); math.Abs(got-40e-9) > 1e-15 {
		t.Fatalf("parallelTime = %v, want 40ns", got)
	}
	// busy 30 and 10: max/mean = 30/20.
	if got := shardImbalance(spans, "place"); got != 1.5 {
		t.Fatalf("imbalance = %v, want 1.5", got)
	}
}
