// Package stats provides the summary statistics the paper reports: means,
// 95% confidence intervals (Student's t), and overhead ratios relative to
// the bare-metal baseline. It also provides the bootstrap intervals that
// pinsweep cells and the hypothesis harness report (bootstrap.go). Those
// are bit-identical to the textbook loop of rand.Intn draws and a sort
// of the resample means, but do only the work that can change the
// answer: a sample whose values all have the same bits is answered
// without drawing, and otherwise each draw is added into its resample's
// sum as it is taken from a local continuation of math/rand's stream.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of repeated measurements.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	// CI95 is the half-width of the 95% confidence interval of the mean.
	CI95 float64
	Min  float64
	Max  float64
}

// two-sided 97.5% quantiles of Student's t for df = 1..30; beyond 30 the
// normal approximation (1.96) is used.
var tTable = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% t critical value for n samples.
func TCritical95(n int) float64 {
	df := n - 1
	if df <= 0 {
		return math.NaN()
	}
	if df <= len(tTable) {
		return tTable[df-1]
	}
	return 1.96
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
		s.CI95 = TCritical95(s.N) * s.Stddev / math.Sqrt(float64(s.N))
	}
	return s
}

// Ratio is the paper's overhead ratio: this platform's mean execution time
// over the bare-metal mean. Returns NaN if baseline is non-positive.
func Ratio(mean, baseline float64) float64 {
	if baseline <= 0 {
		return math.NaN()
	}
	return mean / baseline
}

// Median returns the sample median (0 for an empty sample).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return MedianSorted(c)
}

// MedianSorted returns the median of an already-sorted sample without
// copying or re-sorting it.
func MedianSorted(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// PercentileSorted returns the p-th nearest-rank percentile of an
// already-sorted sample without copying or re-sorting it.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// A NaN percentile would sail through both range clamps (every NaN
	// comparison is false) and turn into an implementation-defined int
	// conversion — historically an out-of-range index panic. There is no
	// meaningful rank for it; answer in kind.
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Percentiles returns the nearest-rank percentiles of xs for every p in
// ps, copying and sorting the sample exactly once. This is the helper the
// report paths use for "median / p95 / p99 / max" style summary lines,
// which previously re-copied and re-sorted per quantile.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 || len(ps) == 0 {
		return out
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	for i, p := range ps {
		out[i] = PercentileSorted(c, p)
	}
	return out
}

// String renders "mean ± ci" compactly.
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", s.Mean, s.CI95, s.N)
}
