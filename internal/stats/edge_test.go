package stats

// Edge-case coverage for the quantile and CI-overlap helpers: NaN inputs,
// single-element samples, and out-of-order percentile lists — the inputs a
// report path can feed them when a simulation produces a degenerate cell.

import (
	"math"
	"testing"
)

func TestPercentileSortedNaNP(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got := PercentileSorted(xs, math.NaN()); !math.IsNaN(got) {
		t.Fatalf("PercentileSorted(xs, NaN) = %v, want NaN", got)
	}
	if got := Percentile(xs, math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Percentile(xs, NaN) = %v, want NaN", got)
	}
	got := Percentiles(xs, 50, math.NaN(), 100)
	if got[0] != 2 || !math.IsNaN(got[1]) || got[2] != 3 {
		t.Fatalf("Percentiles with NaN p = %v, want [2 NaN 3]", got)
	}
}

func TestPercentileNaNData(t *testing.T) {
	// NaN data values make ordering unspecified, but every quantile request
	// must still index in range — no panic, some element (possibly NaN) out.
	xs := []float64{math.NaN(), 1, math.NaN(), 3}
	for _, p := range []float64{0, 50, 95, 100} {
		_ = Percentile(xs, p)
	}
}

func TestPercentileSingleElement(t *testing.T) {
	xs := []float64{7.5}
	for _, p := range []float64{-10, 0, 1, 50, 99, 100, 200} {
		if got := PercentileSorted(xs, p); got != 7.5 {
			t.Fatalf("PercentileSorted([7.5], %v) = %v, want 7.5", p, got)
		}
	}
	if got := MedianSorted(xs); got != 7.5 {
		t.Fatalf("MedianSorted([7.5]) = %v", got)
	}
}

func TestPercentilesUnsortedPs(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	got := Percentiles(xs, 100, 1, 50, 0)
	want := []float64{5, 1, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Percentiles(xs, 100,1,50,0) = %v, want %v", got, want)
		}
	}
	// Output length always matches ps, even for empty samples.
	if got := Percentiles(nil, 99, 50); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("Percentiles(nil, ...) = %v, want [0 0]", got)
	}
	if got := Percentiles(xs); len(got) != 0 {
		t.Fatalf("Percentiles(xs) = %v, want []", got)
	}
}
