package stats

// The bootstrap kernel's benchmarks, at the shape of one pinsweep cell:
// 50 repetitions, 1000 resamples, a 95% percentile interval. benchjson
// gates BootstrapCISweepCell against BootstrapCIReference, the textbook
// form the oracle holds it to, measured in the same run.

import (
	"math/rand"
	"testing"
)

var benchInterval Interval

func benchBootstrap(b *testing.B, xs []float64, ci func([]float64, float64, int, int64) Interval) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchInterval = ci(xs, 0.95, 1000, 7)
	}
}

// BenchmarkBootstrapCISweepCell is a cell whose repetitions differ.
func BenchmarkBootstrapCISweepCell(b *testing.B) {
	benchBootstrap(b, sampleNormal(rand.New(rand.NewSource(4)), 50, 10, 1), BootstrapCI)
}

// BenchmarkBootstrapCIConstant is a seed-free cell: every repetition
// shares one result, so all 50 values have the same bits.
func BenchmarkBootstrapCIConstant(b *testing.B) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 12.375
	}
	benchBootstrap(b, xs, BootstrapCI)
}

// BenchmarkBootstrapCIReference is the sweep cell through the reference:
// rand.Intn draws and sort.Float64s over the means.
func BenchmarkBootstrapCIReference(b *testing.B) {
	benchBootstrap(b, sampleNormal(rand.New(rand.NewSource(4)), 50, 10, 1), refBootstrapCI)
}
