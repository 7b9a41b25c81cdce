package stats

// The bootstrap's index draws must be math/rand's Intn stream exactly:
// every committed interval (sweep cells, the findings table) was drawn
// through rand.Intn, and a single differing index would move a digit.

import (
	"math"
	"math/rand"
	"testing"
)

// checkIntn compares draws of intn on a stream against rand.Intn on a
// generator seeded alike, and fails at the first divergence. It records
// the draws through intn.sum, the loop the bootstrap sums through, in
// batches of 97, so the stream must also carry over from one call to the
// next, as it does between resamples. Afterwards the two must
// agree on the next raw output too: rejection loops consumed the same
// number of outputs, and the stream's in-place refills continued
// math/rand's sequence.
func checkIntn(t *testing.T, seed int64, n, draws int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	var got stream
	got.seed(seed)
	d := newIntn(n)
	buf := make([]int32, 97)
	for k := 0; k < draws; {
		batch := buf[:min(len(buf), draws-k)]
		d.sum(&got, len(batch), nil, batch)
		for _, g := range batch {
			if w := want.Intn(n); w != int(g) {
				t.Fatalf("seed %d, n %d, draw %d: intn = %d, rand.Intn = %d", seed, n, k, g, w)
			}
			k++
		}
	}
	if got.pos == rngLen {
		got.refill()
	}
	if w, g := want.Uint64(), got.x[got.pos]; w != g {
		t.Fatalf("seed %d, n %d: streams out of step after %d draws", seed, n, draws)
	}
}

func TestIntnMatchesMathRand(t *testing.T) {
	// 2³⁰+3 rejects about half its outputs, so its 20000 draws take some
	// 40000 outputs: dozens of rngLen-output refills, each rejection loop
	// free to straddle one.
	ns := []int{1, 2, 3, 7, 50, 64, 1000, 1<<30 + 3, 1<<31 - 1}
	seeds := []int64{math.MinInt64, -1 << 40, -7, 1<<31 - 1, 1 << 31, 1<<62 + 5, math.MaxInt64}
	for seed := int64(0); seed < 20; seed++ {
		seeds = append(seeds, seed)
	}
	for _, n := range ns {
		for _, seed := range seeds {
			checkIntn(t, seed, n, 20000)
		}
	}
}

func TestIntnRejectsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, math.MaxInt32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("newIntn(%d) did not panic", n)
				}
			}()
			newIntn(n)
		}()
	}
}

// FuzzIntn checks the replica against rand.Intn for arbitrary seeds and
// draw ranges in [1, 2³¹). 2000 draws cross at least three refills.
func FuzzIntn(f *testing.F) {
	for _, n := range []int32{1, 2, 3, 50, 1 << 30, 1<<30 + 3, math.MaxInt32} {
		f.Add(int64(n), n)
	}
	f.Fuzz(func(t *testing.T, seed int64, n int32) {
		if n <= 0 {
			return
		}
		checkIntn(t, seed, int(n), 2000)
	})
}
