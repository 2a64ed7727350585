package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 … 1, unsorted on purpose
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one sample = %v, want it", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// TestTailSampleRule pins the sample-count rule: p90 is only reported
// from runs with at least ten samples beyond it, which takes 100.
func TestTailSampleRule(t *testing.T) {
	if n := minSamples(tailQuantile, tailSamples); n != 100 {
		t.Fatalf("minSamples(p90, 10) = %d, want 100", n)
	}
	if b := beyond(100, 0.9); b != 10 {
		t.Errorf("beyond(100, p90) = %d, want 10", b)
	}
	if b := beyond(99, 0.9); b >= 10 {
		t.Errorf("beyond(99, p90) = %d, want fewer than 10", b)
	}
	for n := 1; n < 300; n++ {
		if (beyond(n, 0.9) >= 10) != (n >= 100) {
			t.Fatalf("n=%d: beyond %d disagrees with the 100-sample rule", n, beyond(n, 0.9))
		}
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: noSpan},
		// Two overlapping children cover [10, 60); a third [80, 90).
		{Name: "child", Start: 10, End: 50, Parent: 0},
		{Name: "child", Start: 30, End: 60, Parent: 0},
		{Name: "child", Start: 80, End: 90, Parent: 0},
		// A grandchild counts against its parent only.
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
	}
	lt := selfTimes(spans)
	if got := lt.self["root"][0]; got != 40 {
		t.Errorf("root self = %v, want 100 - 60 covered = 40", got)
	}
	if got := lt.self["child"][0]; got != 32 {
		t.Errorf("first child self = %v, want 40 - 8 = 32", got)
	}
	if got := lt.total["child"]; len(got) != 3 || got[1] != 30 {
		t.Errorf("child totals = %v", got)
	}
}

func TestDisabledRecorderRecordsNothing(t *testing.T) {
	r := newRecorder()
	id := r.start("x", noSpan, 1)
	r.end(id)
	if id != noSpan || len(r.spans) != 0 {
		t.Fatalf("disabled recorder kept %d spans", len(r.spans))
	}
	r.on = true
	r.around("x", noSpan, 1, func() {})
	if len(r.spans) != 1 || r.spans[0].End < r.spans[0].Start {
		t.Fatalf("enabled recorder spans = %+v", r.spans)
	}
}
