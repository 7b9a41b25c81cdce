package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownSample(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("mean: %+v", s)
	}
	if math.Abs(s.Stddev-2.138) > 0.01 {
		t.Fatalf("stddev %v", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max: %+v", s)
	}
	// CI95 = t(7) × s/√8 = 2.365 × 2.138/2.828 ≈ 1.788
	if math.Abs(s.CI95-1.788) > 0.01 {
		t.Fatalf("ci95 %v", s.CI95)
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty: %+v", s)
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.CI95 != 0 || s.Stddev != 0 {
		t.Fatalf("singleton: %+v", s)
	}
}

func TestTCritical(t *testing.T) {
	if !math.IsNaN(TCritical95(1)) {
		t.Fatal("n=1 has no CI")
	}
	if TCritical95(2) != 12.706 {
		t.Fatal("df=1")
	}
	if TCritical95(21) != 2.086 {
		t.Fatal("df=20")
	}
	if TCritical95(500) != 1.96 {
		t.Fatal("large df must fall back to normal")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(4, 2) != 2 {
		t.Fatal("ratio")
	}
	if !math.IsNaN(Ratio(4, 0)) {
		t.Fatal("zero baseline must be NaN")
	}
}

// Percentile is the p-th nearest-rank percentile (0..100) of one copied,
// sorted sample: the per-call reference Percentiles and PercentileSorted
// are checked against.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return PercentileSorted(c, p)
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	if Median(xs) != 5 {
		t.Fatalf("median %v", Median(xs))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
	if Median(nil) != 0 {
		t.Fatal("empty median")
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 9 {
		t.Fatal("percentile extremes")
	}
	if Percentile(xs, -5) != 1 || Percentile(xs, 200) != 9 {
		t.Fatal("percentile clamping")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if !strings.Contains(s.String(), "n=3") {
		t.Fatal(s.String())
	}
}

// Property: mean is bounded by min and max; stddev non-negative; sorting
// invariance of Median.
func TestSummaryProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-6 || s.Mean > s.Max+1e-6 {
			return false
		}
		if s.Stddev < 0 {
			return false
		}
		med := Median(xs)
		return med >= s.Min && med <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Percentiles must agree with per-call Percentile while sorting only once,
// leave the input untouched, and handle empty/degenerate inputs.
func TestPercentilesMultiHelper(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 2, 8, 6, 4, 0}
	orig := append([]float64(nil), xs...)
	ps := []float64{0, 25, 50, 90, 95, 99, 100, 150, -5}
	got := Percentiles(xs, ps...)
	for i, p := range ps {
		if want := Percentile(xs, p); got[i] != want {
			t.Fatalf("Percentiles[%v] = %v, want %v", p, got[i], want)
		}
	}
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatal("Percentiles must not mutate its input")
		}
	}
	if out := Percentiles(nil, 50, 99); out[0] != 0 || out[1] != 0 {
		t.Fatalf("empty sample percentiles %v", out)
	}
	if out := Percentiles(xs); len(out) != 0 {
		t.Fatalf("no requested quantiles must yield empty, got %v", out)
	}
}

// The Sorted variants must match their copying counterparts on sorted input.
func TestSortedVariantsMatch(t *testing.T) {
	for _, xs := range [][]float64{{4}, {2, 1}, {5, 3, 1}, {8, 6, 4, 2, 0, 9, 7, 5, 3, 1}} {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if MedianSorted(sorted) != Median(xs) {
			t.Fatalf("MedianSorted(%v) != Median", xs)
		}
		for _, p := range []float64{0, 10, 50, 90, 100} {
			if PercentileSorted(sorted, p) != Percentile(xs, p) {
				t.Fatalf("PercentileSorted(%v, %v) != Percentile", xs, p)
			}
		}
	}
	if MedianSorted(nil) != 0 || PercentileSorted(nil, 50) != 0 {
		t.Fatal("empty sorted samples must yield 0")
	}
}
