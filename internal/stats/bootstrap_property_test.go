package stats

// Property tests for the resampling backbone: the invariants the hypothesis
// harness leans on (determinism, interval sanity, adaptive-stop behavior)
// checked across many seeded random samples rather than one fixture.

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// sampleNormal draws n pseudo-normal values (sum of 12 uniforms, shifted).
func sampleNormal(rng *rand.Rand, n int, mu, sigma float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		var s float64
		for k := 0; k < 12; k++ {
			s += rng.Float64()
		}
		xs[i] = mu + sigma*(s-6)
	}
	return xs
}

func TestBootstrapCIContainsSampleMean(t *testing.T) {
	src := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 3 + src.Intn(30)
		xs := sampleNormal(src, n, 10+src.Float64()*5, 0.5+src.Float64())
		m := mean(xs)
		ci := BootstrapCI(xs, 0.95, 2000, int64(trial))
		if !ci.Contains(m) {
			t.Fatalf("trial %d: percentile CI %v does not contain sample mean %v (n=%d)", trial, ci, m, n)
		}
		if ci.Lo > ci.Hi {
			t.Fatalf("trial %d: inverted interval %v", trial, ci)
		}
		// Both interval kinds stay inside the sample's range: a bootstrap
		// mean can never leave [min, max] of the data.
		s := Summarize(xs)
		bca := BootstrapCIBCa(xs, 0.95, 2000, int64(trial))
		for _, iv := range []Interval{ci, bca} {
			if iv.Lo < s.Min || iv.Hi > s.Max {
				t.Fatalf("trial %d: interval %v outside data range [%v, %v]", trial, iv, s.Min, s.Max)
			}
		}
	}
}

func TestBootstrapCIShrinksWithN(t *testing.T) {
	// Wider samples from the same distribution give tighter intervals of the
	// mean. Compare averaged half-widths over several draws so the property
	// is about the estimator, not one lucky sample.
	src := rand.New(rand.NewSource(2))
	width := func(n int) float64 {
		var total float64
		const draws = 20
		for d := 0; d < draws; d++ {
			xs := sampleNormal(src, n, 20, 2)
			ci := BootstrapCI(xs, 0.95, 1000, int64(d))
			total += ci.HalfWidth()
		}
		return total / draws
	}
	small, large := width(5), width(40)
	if large >= small {
		t.Fatalf("mean half-width did not shrink: n=5 gives %v, n=40 gives %v", small, large)
	}
}

func TestBootstrapCIDeterministicForSeed(t *testing.T) {
	xs := sampleNormal(rand.New(rand.NewSource(3)), 12, 5, 1)
	a := BootstrapCI(xs, 0.95, 1000, 99)
	b := BootstrapCI(xs, 0.95, 1000, 99)
	if a != b {
		t.Fatalf("same seed, different intervals: %v vs %v", a, b)
	}
	ba := BootstrapCIBCa(xs, 0.95, 1000, 99)
	bb := BootstrapCIBCa(xs, 0.95, 1000, 99)
	if ba != bb {
		t.Fatalf("same seed, different BCa intervals: %v vs %v", ba, bb)
	}
	c := BootstrapCI(xs, 0.95, 1000, 100)
	if a == c {
		t.Fatalf("different seeds produced identical intervals %v — seed ignored?", a)
	}
}

func TestBootstrapDegenerateSamples(t *testing.T) {
	if ci := BootstrapCI(nil, 0.95, 100, 1); !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) {
		t.Fatalf("empty sample: %v, want NaN interval", ci)
	}
	if ci := BootstrapCI([]float64{4.2}, 0.95, 100, 1); ci.Lo != 4.2 || ci.Hi != 4.2 {
		t.Fatalf("singleton sample: %v, want [4.2, 4.2]", ci)
	}
	// A constant sample has a point-mass bootstrap distribution; BCa's bias
	// clamp must keep the interval finite.
	xs := []float64{3, 3, 3, 3, 3}
	ci := BootstrapCIBCa(xs, 0.95, 500, 1)
	if ci.Lo != 3 || ci.Hi != 3 {
		t.Fatalf("constant sample BCa: %v, want [3, 3]", ci)
	}
}

func TestRunUntilTightStopsEarlyOnTightSample(t *testing.T) {
	// A constant sample is tight after Min draws: no extra samples.
	calls := 0
	values, ci, err := RunUntilTight(TightOpts{Min: 4, Max: 100, RelTol: 0.05, Seed: 1},
		func(i int) (float64, error) { calls++; return 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 || len(values) != 4 {
		t.Fatalf("constant sample drew %d samples (%d values), want 4", calls, len(values))
	}
	if ci.HalfWidth() != 0 {
		t.Fatalf("constant sample interval %v, want zero width", ci)
	}
}

func TestRunUntilTightRespectsCap(t *testing.T) {
	// A wildly-dispersed alternating sample can never satisfy a 1% relative
	// tolerance: the loop must stop exactly at Max.
	calls := 0
	values, _, err := RunUntilTight(TightOpts{Min: 2, Max: 9, RelTol: 0.01, Seed: 1},
		func(i int) (float64, error) {
			calls++
			if i%2 == 0 {
				return 1, nil
			}
			return 100, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 9 || len(values) != 9 {
		t.Fatalf("dispersed sample drew %d samples (%d values), want cap 9", calls, len(values))
	}
}

func TestRunUntilTightDeterministicStop(t *testing.T) {
	// The stop decision is a pure function of the observed values: the same
	// value stream yields the same count and interval on every run.
	mk := func() func(int) (float64, error) {
		rng := rand.New(rand.NewSource(11))
		return func(i int) (float64, error) { return 50 + rng.Float64(), nil }
	}
	opts := TightOpts{Min: 3, Max: 50, RelTol: 0.002, Seed: 21}
	v1, ci1, err1 := RunUntilTight(opts, mk())
	v2, ci2, err2 := RunUntilTight(opts, mk())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(v1) != len(v2) || ci1 != ci2 {
		t.Fatalf("rerun diverged: %d values %v vs %d values %v", len(v1), ci1, len(v2), ci2)
	}
	if len(v1) <= 3 || len(v1) >= 50 {
		t.Fatalf("expected an interior adaptive stop, got %d values", len(v1))
	}
}

func TestRunUntilTightPropagatesSampleError(t *testing.T) {
	wantErr := errors.New("simulated trial failure")
	values, _, err := RunUntilTight(TightOpts{Min: 2, Max: 10, Seed: 1},
		func(i int) (float64, error) {
			if i == 3 {
				return 0, wantErr
			}
			return float64(i), nil
		})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if len(values) != 3 {
		t.Fatalf("kept %d values before the error, want 3", len(values))
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); math.Abs(got-p) > 1e-8 {
			t.Fatalf("Φ(Φ⁻¹(%v)) = %v", p, got)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("NormalQuantile must saturate to ∓Inf at the boundaries")
	}
	if !math.IsNaN(NormalQuantile(math.NaN())) {
		t.Fatal("NormalQuantile(NaN) must propagate NaN")
	}
}

// TestBootstrapCIAllocatesOnlyMeans guards the resampling hot path: the
// draw stream and each resample's index chunk live on the stack and the
// seeding generator is recycled, so the resample means are the one
// allocation — at a sample longer than one index chunk too.
func TestBootstrapCIAllocatesOnlyMeans(t *testing.T) {
	for _, n := range []int{50, 600} {
		xs := sampleNormal(rand.New(rand.NewSource(4)), n, 10, 1)
		if avg := testing.AllocsPerRun(50, func() { BootstrapCI(xs, 0.95, 1000, 7) }); avg != 1 {
			t.Fatalf("n=%d: BootstrapCI made %v allocations per call, want 1 (the resample means)", n, avg)
		}
	}
}
