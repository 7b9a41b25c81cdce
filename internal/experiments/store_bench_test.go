package experiments

import (
	"testing"
)

// BenchmarkMemoHit is the in-memory baseline of the StoreHit gate: one Get
// that hits the plain per-process memo, called through the TrialStore
// interface exactly as the trial runner calls Config.Memo (a concrete-type
// call would devirtualize and make the comparison measure dispatch, not
// the store tier).
func BenchmarkMemoHit(b *testing.B) {
	var st TrialStore = NewTrialMemo()
	st.Put(42, TrialResult{Metric: 1.5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Get(42); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkMemoHitParallel is the warm-key contention witness: GOMAXPROCS
// goroutines hammering Get on a warm store through the TrialStore
// interface, each walking its own slice of a shared hot key set — the
// shape of the serving daemon's warm path. With the sharded memo the
// per-op cost must stay within 1.5x of the serial BenchmarkMemoHit (a CI
// step, internal/devtools/benchjson); the pre-shard single-RWMutex table
// serialized here and regressed multiple-fold on multi-core runners.
func BenchmarkMemoHitParallel(b *testing.B) {
	var st TrialStore = NewTrialMemo()
	const hotKeys = 64
	for k := uint64(0); k < hotKeys; k++ {
		st.Put(k, TrialResult{Metric: float64(k)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := uint64(0)
		for pb.Next() {
			if _, ok := st.Get(k % hotKeys); !ok {
				b.Fatal("miss")
			}
			k++
		}
	})
}

// BenchmarkStoreHitParallel is BenchmarkMemoHitParallel over the
// disk-backed store: GOMAXPROCS goroutines hitting records that loaded
// from a segment at open, the shape of a warm replay's workers. Those
// reads take no lock, so they should scale at least as well as the memo's.
func BenchmarkStoreHitParallel(b *testing.B) {
	dir := b.TempDir()
	st, err := OpenTrialStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	const hotKeys = 64
	for k := uint64(0); k < hotKeys; k++ {
		st.Put(k, TrialResult{Metric: float64(k)})
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	warm, err := OpenTrialStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer warm.Close()
	if warm.Stats().Loaded != hotKeys {
		b.Fatal("records did not load from disk")
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := uint64(0)
		for pb.Next() {
			if _, ok := warm.Get(k % hotKeys); !ok {
				b.Fatal("miss")
			}
			k++
		}
	})
}

// BenchmarkMillionTrialReplay measures the warm-replay path of a whole
// figure: every trial of the grid hits the memo, so one op is the full
// runner machinery — grid derivation, seed substreams, store lookups,
// aggregation, rendering-side stats — with zero simulations. This per-grid
// cost, times shards, is what bounds how fast a million-trial sweep
// reassembles from warm stores. The benchmark's replay-warm workload
// measures the same path end to end.
func BenchmarkMillionTrialReplay(b *testing.B) {
	cfg := Config{Quick: true, Reps: 2, Seed: 1234, Executor: Pool{Workers: 1}, Memo: NewTrialMemo()}
	if _, err := RunFigure(3, cfg); err != nil {
		b.Fatal(err) // cold run fills the memo
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure(3, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreHit measures the warm-hit path of the disk-backed store: a
// Get whose record was loaded from a segment at open. CI holds it within
// 10% of BenchmarkMemoHit in the same run (internal/devtools/benchjson) —
// the durable tier must stay an open-time cost, never a per-hit one.
func BenchmarkStoreHit(b *testing.B) {
	dir := b.TempDir()
	st, err := OpenTrialStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	st.Put(42, TrialResult{Metric: 1.5})
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	warm, err := OpenTrialStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer warm.Close()
	if warm.Stats().Loaded != 1 {
		b.Fatal("record did not load from disk")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := warm.Get(42); !ok {
			b.Fatal("miss")
		}
	}
}
