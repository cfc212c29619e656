package main

import (
	"math"
	"testing"
)

func span(id, parent int, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestSelfTimeOverlappingChildren: a parent's self time is its duration
// minus the union of its children's intervals, not minus their sum; the
// overlapped instants are split between the children, so all self times
// add up to the covered wall time.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(0, -1, "parent", 0, 10),
		span(1, 0, "a", 1, 5),
		span(2, 0, "b", 3, 7),
	}
	self := SelfTimes(spans)
	if !near(self[0], 4) || !near(self[1], 3) || !near(self[2], 3) {
		t.Fatalf("self = %v, want parent 4, a 3, b 3", self)
	}
	var sum float64
	for _, v := range self {
		sum += v
	}
	if !near(sum, 10) {
		t.Errorf("self times sum to %g, want the wall time 10", sum)
	}
}

func TestSelfTimeNestingAndClamping(t *testing.T) {
	spans := []Span{
		span(0, -1, "pass", 0, 100),
		span(1, 0, "call", 10, 60),
		span(2, 1, "stage", 20, 30),
		span(3, 1, "stage", 25, 80), // reported past its call: clamped to 60
		span(4, 0, "call", 70, 90),
		span(5, -1, "other", 200, 210), // a second root
	}
	layers := LayerTimes(spans)
	// call 10..60 is covered 20..60 by stages: 10 of its own, plus 70..90.
	want := map[string]float64{"pass": 30, "call": 30, "stage": 40, "other": 10}
	for k, w := range want {
		if !near(layers[k]*1e6, w) {
			t.Errorf("%s: self %g, want %g (all %v)", k, layers[k]*1e6, w, layers)
		}
	}
	if top := topLayers(layers, 3); top[0] != "stage" || len(top) != 3 {
		t.Errorf("top layers = %v", top)
	}
}

// TestAccountCoversLoopRootsOnly: the ledger counts spans under traced
// passes only; set-up and probe spans stay out of the wall and the
// layer sums. A public call's own time is unattributed, not coverage.
func TestAccountCoversLoopRootsOnly(t *testing.T) {
	spans := []Span{
		span(0, -1, "bench.setup", 0, 50),
		span(1, 0, "lang.compile", 0, 40),
		span(2, -1, "bench.pass", 100, 200),
		span(3, 2, "engine.AnalyzeProgram", 100, 190),
		span(4, 3, "engine.reduce", 120, 180),
	}
	a := account(spans)
	if !near(a.WallMS*1e6, 100) {
		t.Errorf("wall = %g ns, want 100", a.WallMS*1e6)
	}
	if !near(a.LayersMS["engine.reduce"]*1e6, 60) || len(a.LayersMS) != 1 {
		t.Errorf("layers = %v", a.LayersMS)
	}
	if !near(a.UnattributedMS["engine.AnalyzeProgram"]*1e6, 30) || !near(a.Unattributed, 0.3) {
		t.Errorf("unattributed = %v (%g)", a.UnattributedMS, a.Unattributed)
	}
	if _, ok := a.LayersMS["lang.compile"]; ok {
		t.Error("set-up spans leaked into the loop ledger")
	}
	if !near(a.Coverage, 0.6) || !near(a.GlueMS*1e6, 10) {
		t.Errorf("coverage %g glue %g, want 0.6 and 10", a.Coverage, a.GlueMS*1e6)
	}
}
