package stats

// The resampling backbone of the hypothesis harness. The paper reports
// Student-t 95% intervals (Summary.CI95); hypothesis runs need intervals
// that do not lean on normality — per-seed effect sizes are ratios of
// means, whose sampling distribution is skewed at the small seed counts a
// CI-speed run can afford. BootstrapCI gives the percentile interval,
// BootstrapCIBCa the bias-corrected-and-accelerated one (the estimator the
// findings report), and RunUntilTight the adaptive rep-count loop: keep
// adding repetitions until the interval is tight relative to the mean, or
// a cap is hit. All of it is deterministic — every resample draw comes
// from math/rand's stream under a caller-chosen seed, never from global
// randomness — because the findings table is locked byte-for-byte by a
// golden test.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
)

// Interval is a two-sided confidence interval with its nominal coverage.
type Interval struct {
	Lo, Hi float64
	// Confidence is the nominal coverage level, e.g. 0.95.
	Confidence float64
}

// HalfWidth returns half the interval's width.
func (iv Interval) HalfWidth() float64 { return (iv.Hi - iv.Lo) / 2 }

// Contains reports whether x lies inside the closed interval.
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// Above reports whether the whole interval lies strictly above x.
func (iv Interval) Above(x float64) bool { return iv.Lo > x }

// Below reports whether the whole interval lies strictly below x.
func (iv Interval) Below(x float64) bool { return iv.Hi < x }

// String renders "[lo, hi]" compactly.
func (iv Interval) String() string { return fmt.Sprintf("[%.4g, %.4g]", iv.Lo, iv.Hi) }

// nanInterval is the degenerate answer for unusable samples.
func nanInterval(confidence float64) Interval {
	return Interval{Lo: math.NaN(), Hi: math.NaN(), Confidence: confidence}
}

// BootstrapCI returns the percentile bootstrap confidence interval of the
// mean of xs: resamples bootstrap means are drawn with replacement from
// math/rand's stream under seed, and the interval is the (α/2, 1−α/2)
// quantile pair by nearest rank. An empty sample or no resamples yields a
// NaN interval; a single observation yields the degenerate [x, x], and so
// does a sample whose values all have the same bits, at its mean.
func BootstrapCI(xs []float64, confidence float64, resamples int, seed int64) Interval {
	if len(xs) < 2 || resamples <= 0 {
		return undrawable(xs, confidence)
	}
	if constant(xs) {
		m := mean(xs)
		return Interval{Lo: m, Hi: m, Confidence: confidence}
	}
	means := bootstrapMeans(xs, resamples, seed)
	alpha := (1 - confidence) / 2
	lo, hi := selectRanks(means, nearestRank(len(means), alpha), nearestRank(len(means), 1-alpha))
	return Interval{Lo: lo, Hi: hi, Confidence: confidence}
}

// BootstrapCIBCa returns the bias-corrected and accelerated (BCa)
// bootstrap confidence interval of the mean of xs (Efron 1987): the
// percentile endpoints are shifted by the bias correction z₀ (the normal
// quantile of the fraction of bootstrap means below the sample mean) and
// the acceleration a (from the jackknife skewness of the mean). For
// symmetric samples it agrees with BootstrapCI; for the skewed ratio
// distributions hypothesis effects follow it keeps the nominal coverage.
// The resamples are drawn as BootstrapCI draws them, and the same samples
// yield NaN and degenerate intervals, except that a sample whose mean is
// NaN yields a NaN interval.
func BootstrapCIBCa(xs []float64, confidence float64, resamples int, seed int64) Interval {
	if len(xs) < 2 || resamples <= 0 {
		return undrawable(xs, confidence)
	}
	theta := mean(xs)
	if math.IsNaN(theta) {
		return nanInterval(confidence)
	}
	if constant(xs) {
		return Interval{Lo: theta, Hi: theta, Confidence: confidence}
	}
	means := bootstrapMeans(xs, resamples, seed)

	// Bias correction: the normal quantile of the proportion of bootstrap
	// means strictly below the observed mean, clamped away from 0 and 1 so
	// a degenerate (constant) bootstrap distribution cannot produce ±Inf.
	below := 0
	for _, m := range means {
		if m < theta {
			below++
		}
	}
	b := len(means)
	prop := (float64(below) + 0.5) / (float64(b) + 1)
	z0 := NormalQuantile(prop)

	// Acceleration: jackknife estimate from leave-one-out means.
	accel := jackknifeAcceleration(xs)

	alpha := (1 - confidence) / 2
	adj := func(z float64) float64 {
		num := z0 + z
		return NormalCDF(z0 + num/(1-accel*num))
	}
	lo, hi := selectRanks(means, nearestRank(b, adj(NormalQuantile(alpha))), nearestRank(b, adj(NormalQuantile(1-alpha))))
	return Interval{Lo: lo, Hi: hi, Confidence: confidence}
}

// undrawable is the interval of a sample or configuration that supports no
// bootstrap distribution: [x, x] for a single observation, NaN for an
// empty sample or no resamples.
func undrawable(xs []float64, confidence float64) Interval {
	if len(xs) == 1 {
		return Interval{Lo: xs[0], Hi: xs[0], Confidence: confidence}
	}
	return nanInterval(confidence)
}

// constant reports whether every value of xs has the same bits. Every
// resample of such a sample then adds the same n values in the same order
// from the same zero, so every bootstrap mean is bit for bit mean(xs), and
// so is every quantile of them: the interval needs no draws. The test is
// on bits, not ==, so values that compare equal with different bits (+0
// and −0) take the drawn path, which needs no argument about their sums.
func constant(xs []float64) bool {
	first := math.Float64bits(xs[0])
	for _, x := range xs[1:] {
		if math.Float64bits(x) != first {
			return false
		}
	}
	return true
}

// TightOpts configures RunUntilTight.
type TightOpts struct {
	// Min and Max bound the sample count: Min samples are always drawn
	// (raised to 2 — one observation has no interval), then samples are
	// added until the interval is tight or Max is reached. Max below Min is
	// raised to Min.
	Min, Max int
	// RelTol is the target: stop once the interval half-width is at most
	// RelTol·|mean|. Zero (or a zero mean) means no early stop — run to Max.
	RelTol float64
	// Confidence is the interval's nominal coverage (default 0.95).
	Confidence float64
	// Resamples is the bootstrap resample count (default 1000).
	Resamples int
	// Seed seeds the bootstrap RNG. Every tightness check re-seeds, so the
	// stop decision — and therefore the sample count — is a pure function
	// of the observed values: reruns and replays take identical paths.
	Seed int64
}

func (o TightOpts) withDefaults() TightOpts {
	if o.Min < 2 {
		o.Min = 2
	}
	if o.Max < o.Min {
		o.Max = o.Min
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	if o.Resamples <= 0 {
		o.Resamples = 1000
	}
	return o
}

// RunUntilTight is the adaptive rep-count loop: it draws sample(0..Min-1),
// then keeps drawing while the bootstrap interval of the mean is wider
// than RelTol·|mean| and the count is below Max. It returns the values
// drawn and the final interval. A sample error aborts the loop and is
// returned with the values drawn so far.
func RunUntilTight(opts TightOpts, sample func(i int) (float64, error)) ([]float64, Interval, error) {
	opts = opts.withDefaults()
	values := make([]float64, 0, opts.Min)
	ci := nanInterval(opts.Confidence)
	for i := 0; i < opts.Max; i++ {
		v, err := sample(i)
		if err != nil {
			return values, ci, err
		}
		values = append(values, v)
		if len(values) < opts.Min {
			continue
		}
		ci = BootstrapCI(values, opts.Confidence, opts.Resamples, opts.Seed)
		if opts.RelTol > 0 {
			if m := math.Abs(mean(values)); m > 0 && ci.HalfWidth() <= opts.RelTol*m {
				break
			}
		}
	}
	return values, ci, nil
}

// bootstrapMeans draws the bootstrap distribution of the mean of xs, at
// least two values long, for resamples > 0. Resample b's indices are draws
// b·n .. b·n+n−1 of rand.New(rand.NewSource(seed)).Intn(n), and its sum
// adds the drawn values in draw order, as the textbook loop does. The
// callers answer constant samples without calling it: there every draw
// would land on the same bits.
func bootstrapMeans(xs []float64, resamples int, seed int64) []float64 {
	n := len(xs)
	draw := newIntn(n)
	var s stream
	s.seed(seed)
	means := make([]float64, resamples)
	for b := range means {
		means[b] = draw.sum(&s, n, xs, nil) / float64(n)
	}
	return means
}

// math/rand's generator is an additive lagged Fibonacci generator:
// output n is x[n] = x[n−rngLen] + x[n−rngTap] (mod 2⁶⁴), and Int63 masks
// off the top bit of that sum.
const (
	rngLen = 607
	rngTap = 273
)

// stream continues the output stream of rand.NewSource(seed) without an
// interface call per draw. Seeding takes the source's first rngLen outputs
// through rand.Source64's Uint64 — the full 64-bit sums: Int63 drops the
// top bit, and the recurrence carries it. Every later block of rngLen
// outputs is computed in place from the previous one by the recurrence.
// Go 1 freezes math/rand's value stream, so the continuation stays exact.
type stream struct {
	x   [rngLen]uint64 // outputs; x[pos:] are still to be returned
	pos int
}

// sources recycles the seeding generators: rand.NewSource allocates about
// 5 KB, and only its first rngLen outputs are needed.
var sources = sync.Pool{New: func() any { return rand.NewSource(0).(rand.Source64) }}

// seed positions s at the start of rand.NewSource(seed)'s stream.
func (s *stream) seed(seed int64) {
	src := sources.Get().(rand.Source64)
	src.Seed(seed)
	for i := range s.x {
		s.x[i] = src.Uint64()
	}
	sources.Put(src)
	s.pos = 0
}

// refill replaces the block just consumed with the next rngLen outputs:
// slot i holds x[n] and becomes x[n+rngLen] = x[n] + x[n+rngLen−rngTap],
// which sits rngLen−rngTap slots later in the old block for
// i < rngTap, and rngTap slots earlier in the new block after that.
func (s *stream) refill() {
	x := &s.x
	for i := 0; i < rngTap; i++ {
		x[i] += x[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		x[i] += x[i-rngTap]
	}
	s.pos = 0
}

// intn draws from [0, n) the exact values rand.Intn(n) would, for
// 0 < n < 2³¹, at a fraction of the cost. Go 1 freezes math/rand's value
// stream, so a replica of (*Rand).Int31n stays exact: take the top 31 bits
// of one Int63 output, reject values above the largest multiple of n, and
// reduce the rest modulo n. Int31n recomputes its rejection bound with a
// modulo on every draw and reduces with a second one; here the bound is
// computed once per bootstrap call, and v % n is Lemire's fastmod (Lemire,
// Kaser & Kurz, "Faster Remainder by Direct Computation", 2019): with
// m = ⌊(2⁶⁴−1)/n⌋ + 1 (mod 2⁶⁴), the high word of (m·v mod 2⁶⁴)·n equals
// v % n for every 32-bit v and nonzero n. Int31n masks instead when n is a
// power of two; there the bound is 2³¹−1, so nothing is rejected, and
// v % n = v & (n−1), so the draws agree.
type intn struct {
	n, m uint64
	max  int32 // largest accepted draw
}

func newIntn(n int) intn {
	if n <= 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("stats: draw range %d outside [1, 2³¹)", n))
	}
	return intn{
		n:   uint64(n),
		m:   ^uint64(0)/uint64(n) + 1,
		max: int32((1 << 31) - 1 - (1<<31)%uint32(n)),
	}
}

// sum draws the next need values rand.Intn(n) would return at s's
// position, advances s past every output they consumed, and returns the
// sum of xs at the drawn indices, added in draw order from zero. With a
// non-nil idx it stores draw j in idx[j] instead and returns 0, so the
// draw-level tests record indices through this same loop; idx is fixed
// for the call, so that branch always goes one way. Each output yields at
// most one draw, so the inner loop runs to the end of the block or of the
// draws still needed, whichever comes first, and the refill check happens
// once per run; a rejected output (a fraction (2³¹ mod n)/2³¹ of them,
// below n/2³¹) leaves one more draw for the next run.
func (d intn) sum(s *stream, need int, xs []float64, idx []int32) float64 {
	var sum float64
	for j := 0; j < need; {
		if s.pos == rngLen {
			s.refill()
		}
		run := s.x[s.pos : s.pos+min(rngLen-s.pos, need-j)]
		s.pos += len(run)
		for _, u := range run {
			v := int31(u)
			if v > d.max {
				continue
			}
			i, _ := bits.Mul64(d.m*uint64(v), d.n)
			if idx != nil {
				idx[j] = int32(i)
			} else {
				sum += xs[i]
			}
			j++
		}
	}
	return sum
}

// int31 is (*Rand).Int31 of one output: the top 31 bits of its Int63.
func int31(u uint64) int32 { return int32(u << 1 >> 33) }

// jackknifeAcceleration estimates the BCa acceleration constant from the
// skewness of the leave-one-out means. A sample whose jackknife variance
// vanishes (all values equal) has zero acceleration.
func jackknifeAcceleration(xs []float64) float64 {
	n := len(xs)
	if n < 3 {
		return 0
	}
	var total float64
	for _, x := range xs {
		total += x
	}
	loo := make([]float64, n)
	var looMean float64
	for i, x := range xs {
		loo[i] = (total - x) / float64(n-1)
		looMean += loo[i]
	}
	looMean /= float64(n)
	var num, den float64
	for _, m := range loo {
		d := looMean - m
		num += d * d * d
		den += d * d
	}
	if den == 0 {
		return 0
	}
	return num / (6 * math.Pow(den, 1.5))
}

// nearestRank returns the 0-based nearest-rank index of the q-th (0..1)
// quantile of n sorted values, clamping out-of-range and NaN q to the
// extremes.
func nearestRank(n int, q float64) int {
	if math.IsNaN(q) || q <= 0 {
		return 0
	}
	if q >= 1 {
		return n - 1
	}
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// selectRanks returns the values at 0-based ranks i and j of a in
// sort.Float64s order (NaN lowest) without sorting it: NaNs are moved to
// the front, then the lower rank is selected among the rest and the
// higher one above it. a is permuted.
func selectRanks(a []float64, i, j int) (float64, float64) {
	nan := 0
	for k, x := range a {
		if x != x {
			a[k], a[nan] = a[nan], x
			nan++
		}
	}
	pick := func(rank, from int) float64 {
		if rank < nan {
			return a[rank]
		}
		return selectNth(a[from:], rank-from)
	}
	lo, hi := min(i, j), max(i, j)
	vlo := pick(lo, nan)
	vhi := pick(hi, max(lo, nan))
	if i > j {
		return vhi, vlo
	}
	return vlo, vhi
}

// selectNth returns the k-th smallest of a, which holds no NaN, leaving it
// at a[k] with nothing larger before it and nothing smaller after it
// (Hoare's FIND with a median-of-three pivot). A range still open after
// 2·bits.Len(n) partitions is sorted instead, which bounds the worst case
// at O(n log n).
func selectNth(a []float64, k int) float64 {
	l, r := 0, len(a)-1
	for budget := 2 * bits.Len(uint(len(a))); l < r; budget-- {
		if budget == 0 {
			sort.Float64s(a[l : r+1])
			break
		}
		m := l + (r-l)/2
		if a[m] < a[l] {
			a[l], a[m] = a[m], a[l]
		}
		if a[r] < a[l] {
			a[l], a[r] = a[r], a[l]
		}
		if a[r] < a[m] {
			a[m], a[r] = a[r], a[m]
		}
		p := a[m]
		i, j := l, r
		for i <= j {
			for a[i] < p {
				i++
			}
			for p < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[l..j] ≤ p ≤ a[i..r], and everything between equals p.
		switch {
		case k <= j:
			r = j
		case k >= i:
			l = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// mean returns the arithmetic mean (NaN for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// NormalCDF is the standard normal cumulative distribution Φ(x).
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// normalQuantile coefficients: Acklam's rational approximation to the
// inverse standard normal CDF (relative error < 1.15e-9 over (0,1)).
var (
	nqA = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	nqB = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	nqC = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	nqD = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
)

// NormalQuantile is the inverse standard normal CDF Φ⁻¹(p). p outside
// (0, 1) returns ∓Inf; NaN propagates.
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p):
		return math.NaN()
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	var q, r float64
	switch {
	case p < pLow:
		q = math.Sqrt(-2 * math.Log(p))
		return (((((nqC[0]*q+nqC[1])*q+nqC[2])*q+nqC[3])*q+nqC[4])*q + nqC[5]) /
			((((nqD[0]*q+nqD[1])*q+nqD[2])*q+nqD[3])*q + 1)
	case p > pHigh:
		q = math.Sqrt(-2 * math.Log(1-p))
		return -(((((nqC[0]*q+nqC[1])*q+nqC[2])*q+nqC[3])*q+nqC[4])*q + nqC[5]) /
			((((nqD[0]*q+nqD[1])*q+nqD[2])*q+nqD[3])*q + 1)
	default:
		q = p - 0.5
		r = q * q
		return (((((nqA[0]*r+nqA[1])*r+nqA[2])*r+nqA[3])*r+nqA[4])*r + nqA[5]) * q /
			(((((nqB[0]*r+nqB[1])*r+nqB[2])*r+nqB[3])*r+nqB[4])*r + 1)
	}
}
