package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	if _, _, ok := tail(seq(10)); ok {
		t.Fatal("10 samples: no percentile has 10 beyond it, want ok=false")
	}
	v, pct, ok := tail(seq(11))
	if !ok || v != 1 || math.Abs(pct-100.0/11) > 1e-12 {
		t.Fatalf("11 samples: got (%v, %v, %v), want the minimum at 9.09%%", v, pct, ok)
	}
	v, pct, ok = tail(seq(1000))
	if !ok || v != 990 || pct != 99 {
		t.Fatalf("1000 samples: got (%v, %v, %v), want 990 at p99", v, pct, ok)
	}
	xs := seq(57)
	v, _, _ = tail(xs)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("57 samples: %d beyond the tail, want %d", beyond, tailBeyond)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("empty median should be NaN")
	}
}

func TestSteadyRateNetsOutSetup(t *testing.T) {
	// 1000 balls in a 1.5 s call of which 0.5 s is set-up: 1000 balls/s.
	if got := steadyRate(1000, 1.5, 0.5); got != 1000 {
		t.Fatalf("steadyRate = %v, want 1000", got)
	}
	// Moving 0.25 s of steady work into set-up leaves the call time
	// unchanged but raises set-up: the rate rises only because set-up
	// is charged separately, and setup_s shows the move.
	if got := steadyRate(1000, 1.5, 0.75); got != 4000.0/3 {
		t.Fatalf("steadyRate = %v, want 1333.33", got)
	}
	if !math.IsNaN(steadyRate(1, 1, 1)) || !math.IsNaN(steadyRate(1, 1, 2)) {
		t.Fatal("non-positive net time must give NaN")
	}
	if got := scalingEff(2, 1, 2); got != 1 {
		t.Fatalf("perfect scaling = %v", got)
	}
	if got := scalingEff(1, 1, 2); got != 0.5 {
		t.Fatalf("no scaling = %v", got)
	}
}
