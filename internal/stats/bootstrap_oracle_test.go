package stats

// The bootstrap's exactness oracle. BootstrapCI and BootstrapCIBCa
// continue math/rand's stream locally, sum each resample as they draw it,
// answer constant samples without drawing, and select their two order
// statistics instead of sorting; the reference below is the textbook form
// they must reproduce bit for bit: rand.Intn draws from the seeded
// generator for every sample, sort.Float64s over the resample means,
// nearest-rank quantiles of the sorted slice.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refMeans draws the bootstrap means the textbook way.
func refMeans(xs []float64, resamples int, seed int64) []float64 {
	n := len(xs)
	if n < 2 || resamples <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	means := make([]float64, resamples)
	for b := range means {
		var sum float64
		for range n {
			sum += xs[rng.Intn(n)]
		}
		means[b] = sum / float64(n)
	}
	sort.Float64s(means)
	return means
}

// quantileSorted returns the q-th (0..1) quantile of a sorted sample by
// nearest rank, clamping out-of-range and NaN q to the extremes.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if math.IsNaN(q) || q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func refBootstrapCI(xs []float64, confidence float64, resamples int, seed int64) Interval {
	means := refMeans(xs, resamples, seed)
	if means == nil {
		if len(xs) == 1 {
			return Interval{Lo: xs[0], Hi: xs[0], Confidence: confidence}
		}
		return nanInterval(confidence)
	}
	alpha := (1 - confidence) / 2
	return Interval{Lo: quantileSorted(means, alpha), Hi: quantileSorted(means, 1-alpha), Confidence: confidence}
}

func refBootstrapCIBCa(xs []float64, confidence float64, resamples int, seed int64) Interval {
	means := refMeans(xs, resamples, seed)
	if means == nil {
		if len(xs) == 1 {
			return Interval{Lo: xs[0], Hi: xs[0], Confidence: confidence}
		}
		return nanInterval(confidence)
	}
	theta := mean(xs)
	if math.IsNaN(theta) {
		return nanInterval(confidence)
	}
	below := 0
	for _, m := range means {
		if m < theta {
			below++
		}
	}
	z0 := NormalQuantile((float64(below) + 0.5) / (float64(len(means)) + 1))
	accel := jackknifeAcceleration(xs)
	alpha := (1 - confidence) / 2
	adj := func(z float64) float64 {
		num := z0 + z
		return NormalCDF(z0 + num/(1-accel*num))
	}
	return Interval{
		Lo:         quantileSorted(means, adj(NormalQuantile(alpha))),
		Hi:         quantileSorted(means, adj(NormalQuantile(1-alpha))),
		Confidence: confidence,
	}
}

// sameBits reports whether two interval endpoints are the same float64
// bit for bit. Any two NaNs count as the same: sort.Float64s leaves the
// order among NaNs unspecified, and sums that meet +Inf and −Inf carry a
// different NaN payload than a NaN drawn from the sample.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkOracle fails unless both interval kinds match the reference.
func checkOracle(t *testing.T, sample string, xs []float64, confidence float64, resamples int, seed int64) {
	t.Helper()
	for _, c := range []struct {
		name     string
		got, ref func([]float64, float64, int, int64) Interval
	}{
		{"BootstrapCI", BootstrapCI, refBootstrapCI},
		{"BootstrapCIBCa", BootstrapCIBCa, refBootstrapCIBCa},
	} {
		got, want := c.got(xs, confidence, resamples, seed), c.ref(xs, confidence, resamples, seed)
		if !sameBits(got.Lo, want.Lo) || !sameBits(got.Hi, want.Hi) || got.Confidence != want.Confidence {
			t.Fatalf("%s(%s sample, n=%d, conf %v, %d resamples, seed %d) = [%v, %v], reference [%v, %v]",
				c.name, sample, len(xs), confidence, resamples, seed, got.Lo, got.Hi, want.Lo, want.Hi)
		}
	}
}

// oracleSamples are samples of each length the oracle runs: smooth values,
// heavy ties, ones carrying ±Inf or NaN, constant samples (every value
// the same bits, the shortcut's domain: 0.1 sums inexactly, −0 sums to +0
// from a zero start), and near-constant ones that must still be drawn.
func oracleSamples(n int, rng *rand.Rand) map[string][]float64 {
	smooth := make([]float64, n)
	ties := make([]float64, n)
	for i := range smooth {
		smooth[i] = 10 + rng.NormFloat64()
		ties[i] = float64(rng.Intn(3))
	}
	withInf := append([]float64(nil), smooth...)
	withInf[0] = math.Inf(1)
	withBothInf := append([]float64(nil), withInf...)
	withBothInf[n-1] = math.Inf(-1)
	withNaN := append([]float64(nil), ties...)
	withNaN[n/2] = math.NaN()
	withAll := append([]float64(nil), withBothInf...)
	withAll[n/2] = math.NaN()
	fill := func(x float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = x
		}
		return xs
	}
	signedZeros := fill(0)
	for i := 1; i < n; i += 2 {
		signedZeros[i] = math.Copysign(0, -1)
	}
	oneUlp := fill(0.1)
	oneUlp[n-1] = math.Nextafter(0.1, 1)
	return map[string][]float64{
		"smooth": smooth, "ties": ties, "+Inf": withInf, "±Inf": withBothInf,
		"NaN": withNaN, "NaN and ±Inf": withAll,
		"constant 0.1":       fill(0.1),
		"constant −0":        fill(math.Copysign(0, -1)),
		"constant +Inf":      fill(math.Inf(1)),
		"constant −Inf":      fill(math.Inf(-1)),
		"constant NaN":       fill(math.Float64frombits(0x7ff8_0000_0000_0abc)),
		"+0 and −0":          signedZeros,
		"0.1 and 1 ulp more": oneUlp,
	}
}

// TestBootstrapMatchesReference runs the full cross product of seeds
// (negative, zero, at and above 2³¹), resample counts (none included) and
// confidence levels for samples up to 7 long. The 50- and 64-long samples take one
// seed of each kind, and the 1000-long ones, a million draws per call, one
// seed, one level and two of the samples. A sample of 2³⁰+3 values would
// need 8 GiB, so that draw range is checked at the index-draw level by
// TestIntnMatchesMathRand, through the same loop.
func TestBootstrapMatchesReference(t *testing.T) {
	allSeeds := []int64{math.MinInt64, -1 << 40, -3, 0, 1, 1<<31 - 1, 1 << 31, 1<<62 + 9, math.MaxInt64}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3, 7, 50, 64, 1000} {
		seeds, confidences := allSeeds, []float64{0.9, 0.95, 0.99}
		switch {
		case n == 1000:
			seeds, confidences = []int64{1 << 31}, []float64{0.95}
		case n >= 50:
			seeds = []int64{-3, 0, 1 << 31}
		}
		for name, xs := range oracleSamples(n, rng) {
			if n == 1000 && name != "smooth" && name != "NaN and ±Inf" {
				continue
			}
			for _, resamples := range []int{0, 1, 2, 607, 608, 1000} {
				for _, confidence := range confidences {
					for _, seed := range seeds {
						checkOracle(t, name, xs, confidence, resamples, seed)
					}
				}
			}
		}
	}
}

// FuzzBootstrapCI checks both interval kinds against the reference for
// arbitrary seeds, sample values (ties, infinities and NaNs included),
// resample counts and confidence levels.
func FuzzBootstrapCI(f *testing.F) {
	f.Add(int64(0), uint16(1000), 0.95, []byte{1, 2, 3, 4, 5})
	f.Add(int64(-3), uint16(607), 0.9, []byte{7, 7, 7, 250, 7})
	f.Add(int64(1<<31), uint16(608), 0.99, []byte{0, 255, 254, 3})
	// Constant samples: an ordinary value, zeros, +Inf and NaN.
	f.Add(int64(5), uint16(1000), 0.95, []byte{9, 9, 9, 9, 9, 9})
	f.Add(int64(-8), uint16(2), 0.9, []byte{0, 0, 0})
	f.Add(int64(1<<40), uint16(607), 0.95, []byte{253, 253})
	f.Add(int64(0), uint16(1), 0.99, []byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, seed int64, resamples uint16, confidence float64, raw []byte) {
		if len(raw) > 64 || resamples > 2000 {
			return
		}
		// Bytes map onto a small palette so that ties are common and sums
		// stay exact-ish; 253..255 are +Inf, −Inf and NaN.
		xs := make([]float64, len(raw))
		for i, b := range raw {
			switch b {
			case 253:
				xs[i] = math.Inf(1)
			case 254:
				xs[i] = math.Inf(-1)
			case 255:
				xs[i] = math.NaN()
			default:
				xs[i] = float64(b%32) * 0.25
			}
		}
		checkOracle(t, "fuzzed", xs, confidence, int(resamples), seed)
	})
}
