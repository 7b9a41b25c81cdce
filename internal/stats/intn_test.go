package stats

// The bootstrap's index draws must be math/rand's Intn stream exactly:
// every committed interval (sweep cells, the findings table) was drawn
// through rand.Intn, and a single differing index would move a digit.

import (
	"math"
	"math/rand"
	"testing"
)

// checkIntn compares draws of intn against rand.Intn on two generators
// seeded alike, and fails at the first divergence. It fills in batches of
// 97, so the stream must also carry over from one fill call to the next,
// as it does between bootstrap resamples.
func checkIntn(t *testing.T, seed int64, n, draws int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	got := rand.New(rand.NewSource(seed))
	d := newIntn(n)
	buf := make([]int32, 97)
	for k := 0; k < draws; {
		batch := buf[:min(len(buf), draws-k)]
		d.fill(batch, got)
		for _, g := range batch {
			if w := want.Intn(n); w != int(g) {
				t.Fatalf("seed %d, n %d, draw %d: intn = %d, rand.Intn = %d", seed, n, k, g, w)
			}
			k++
		}
	}
	// Same value and same stream position: rejection loops consumed the
	// same number of Int63 calls.
	if w, g := want.Int63(), got.Int63(); w != g {
		t.Fatalf("seed %d, n %d: streams out of step after %d draws", seed, n, draws)
	}
}

func TestIntnMatchesMathRand(t *testing.T) {
	ns := []int{1, 2, 3, 7, 50, 64, 1000, 1<<30 + 3, 1<<31 - 1}
	for _, n := range ns {
		for seed := int64(0); seed < 20; seed++ {
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
// draw ranges in [1, 2³¹).
func FuzzIntn(f *testing.F) {
	for _, n := range []int32{1, 2, 3, 50, 1 << 30, 1<<30 + 3, math.MaxInt32} {
		f.Add(int64(n), n)
	}
	f.Fuzz(func(t *testing.T, seed int64, n int32) {
		if n <= 0 {
			return
		}
		checkIntn(t, seed, int(n), 500)
	})
}
