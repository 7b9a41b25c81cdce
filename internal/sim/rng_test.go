package sim

import "testing"

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give identical streams")
		}
	}
}

func TestRNGSeedSeparation(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent seeds produced %d/100 equal values", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpDurationMean(t *testing.T) {
	r := NewRNG(5)
	const mean = 10 * Millisecond
	var sum Time
	const n = 20000
	for i := 0; i < n; i++ {
		d := r.ExpDuration(mean)
		if d < 0 {
			t.Fatalf("negative duration %v", d)
		}
		sum += d
	}
	got := float64(sum) / n / float64(mean)
	if got < 0.95 || got > 1.05 {
		t.Fatalf("exponential mean off by %v×", got)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(8)
	const base = 100 * Millisecond
	for i := 0; i < 1000; i++ {
		v := r.Jitter(base, 0.1)
		if v < 90*Millisecond || v > 110*Millisecond {
			t.Fatalf("jitter out of ±10%%: %v", v)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("zero jitter must be identity")
	}
}

// TestDrawsCountsEveryDrawMethod: every draw method advances Draws, a
// zero-width Jitter does not, and Reseed rewinds the count with the
// stream. Seed-free trial sharing relies on all three.
func TestDrawsCountsEveryDrawMethod(t *testing.T) {
	r := NewRNG(9)
	if r.Draws() != 0 {
		t.Fatalf("fresh RNG has %d draws, want 0", r.Draws())
	}
	for _, c := range []struct {
		name string
		draw func()
	}{
		{"Uint64", func() { r.Uint64() }},
		{"Float64", func() { r.Float64() }},
		{"Intn", func() { r.Intn(5) }},
		{"ExpDuration", func() { r.ExpDuration(Millisecond) }},
		{"Jitter", func() { r.Jitter(Millisecond, 0.1) }},
	} {
		before := r.Draws()
		c.draw()
		if r.Draws() <= before {
			t.Fatalf("%s did not advance Draws (%d before, %d after)", c.name, before, r.Draws())
		}
	}
	before := r.Draws()
	if r.Jitter(Millisecond, 0) != Millisecond || r.Draws() != before {
		t.Fatalf("Jitter(d, 0) drew from the stream: %d draws, want %d", r.Draws(), before)
	}
	r.Reseed(9)
	if r.Draws() != 0 {
		t.Fatalf("Reseed left %d draws, want 0", r.Draws())
	}
}
