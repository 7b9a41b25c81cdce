package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
)

func TestWorkerCountResolution(t *testing.T) {
	if got := (Pool{Workers: 1}).count(100); got != 1 {
		t.Fatalf("Workers 1 → %d", got)
	}
	if got := (Pool{Workers: 8}).count(100); got != 8 {
		t.Fatalf("Workers 8 → %d", got)
	}
	if got := (Pool{Workers: 8}).count(3); got != 3 {
		t.Fatalf("8 workers for 3 trials → %d, want clamp to 3", got)
	}
	if got := (Pool{Workers: -2}).count(100); got != 1 {
		t.Fatalf("negative Workers → %d, want 1", got)
	}
	if got := (Pool{}).count(100); got < 1 {
		t.Fatalf("Workers 0 → %d, want ≥1 (GOMAXPROCS)", got)
	}
}

func TestForEachTrialCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 7} {
		const n = 100
		var counts [n]atomic.Int64
		err := forEachTrial(Config{Executor: Pool{Workers: workers}}, n, func(tc *TrialContext, i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachTrialReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 7} {
		err := forEachTrial(Config{Executor: Pool{Workers: workers}}, 50, func(tc *TrialContext, i int) error {
			if i == 13 || i == 37 {
				return fmt.Errorf("trial %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "trial 13 failed" {
			t.Fatalf("workers=%d: err = %v, want the lowest-index failure", workers, err)
		}
	}
	if err := forEachTrial(Config{Executor: Pool{Workers: 4}}, 0, func(*TrialContext, int) error {
		return errors.New("must not run")
	}); err != nil {
		t.Fatalf("empty grid: %v", err)
	}
}

func TestForEachTrialProgressReachesTotal(t *testing.T) {
	for _, workers := range []int{1, 5} {
		const n = 40
		var calls int
		last := 0
		cfg := Config{Executor: Pool{Workers: workers}, Progress: func(done, total int) {
			calls++
			if total != n {
				t.Fatalf("total = %d, want %d", total, n)
			}
			if done <= last && workers == 1 {
				t.Fatalf("serial progress must be monotonic: %d after %d", done, last)
			}
			last = done
		}}
		if err := forEachTrial(cfg, n, func(*TrialContext, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if calls != n {
			t.Fatalf("workers=%d: progress called %d times, want %d", workers, calls, n)
		}
		if last != n {
			t.Fatalf("workers=%d: final done = %d, want %d", workers, last, n)
		}
	}
}

// TestParallelFiguresMatchSerial is the determinism contract of the
// tentpole: every figure regenerated with a worker pool must be
// cell-for-cell bit-identical to the legacy serial path.
func TestParallelFiguresMatchSerial(t *testing.T) {
	for _, n := range []int{3, 7, 8} {
		serial, err := RunFigure(n, Config{Quick: true, Reps: 2, Seed: 1234, Executor: Pool{Workers: 1}})
		if err != nil {
			t.Fatalf("fig %d serial: %v", n, err)
		}
		parallel, err := RunFigure(n, Config{Quick: true, Reps: 2, Seed: 1234, Executor: Pool{Workers: 8}})
		if err != nil {
			t.Fatalf("fig %d parallel: %v", n, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("figure %d: Workers:8 output differs from Workers:1\nserial:   %+v\nparallel: %+v",
				n, serial, parallel)
		}
	}
}

// TestMemoizedFigureMatchesUnmemoized guards the trial fingerprint: replaying
// a figure from a warm memo must reproduce the simulated figure exactly.
func TestMemoizedFigureMatchesUnmemoized(t *testing.T) {
	base := Config{Quick: true, Reps: 2, Seed: 99, Executor: Pool{Workers: 1}}
	plain, err := RunFigure(3, base)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewTrialMemo()
	withMemo := base
	withMemo.Memo = memo
	first, err := RunFigure(3, withMemo)
	if err != nil {
		t.Fatal(err)
	}
	misses := memo.Stats().Misses
	if misses == 0 {
		t.Fatal("cold memo must miss")
	}
	second, err := RunFigure(3, withMemo)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Misses != misses {
		t.Fatalf("warm replay simulated %d new trials, want 0", memo.Stats().Misses-misses)
	}
	if !reflect.DeepEqual(plain, first) || !reflect.DeepEqual(first, second) {
		t.Fatal("memoized figures must equal the unmemoized figure")
	}
}

// ablated returns the registered scenario name with every series ablated
// by a: the same grid and seeds, so only the ablation tells the trials
// apart.
func ablated(t *testing.T, name string, a machine.Ablation) Scenario {
	t.Helper()
	sc, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("scenario %s not registered", name)
	}
	for i := range sc.Series {
		sc.Series[i].Ablate = a
	}
	return sc
}

// TestAblatedFigureMemoizes: a series ablation is data in the trial key, so
// an ablated scenario replays from a warm memo, and the unablated figure
// sharing the memo simulates its own trials instead of replaying the
// ablated ones.
func TestAblatedFigureMemoizes(t *testing.T) {
	memo := NewTrialMemo()
	cfg := Config{Quick: true, Reps: 1, Seed: 5, Executor: Pool{Workers: 1}, Memo: memo}
	sc := ablated(t, "fig7", machine.AblateNUMA)
	first, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	misses := memo.Stats().Misses
	if misses == 0 {
		t.Fatal("cold memo must miss")
	}
	second, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Misses != misses {
		t.Fatalf("warm ablated replay simulated %d new trials, want 0", memo.Stats().Misses-misses)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("memoized ablated figure must equal the simulated one")
	}
	if _, err := RunFigure(7, cfg); err != nil {
		t.Fatal(err)
	}
	if got := memo.Stats().Misses - misses; got != misses {
		t.Fatalf("unablated run simulated %d trials, want %d: it replayed ablated results", got, misses)
	}
}

// The benchmark pair is the serial-vs-parallel A/B of Pool's worker
// count; on a multi-core host the parallel variant should approach a
// GOMAXPROCS-fold speedup (trials are embarrassingly parallel).
func BenchmarkQuickFig3Serial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure(3, Config{Quick: true, Reps: 2, Seed: 1234, Executor: Pool{Workers: 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioDispatch measures everything the declarative engine
// adds on top of raw trial execution for one figure run: registry lookup,
// defaulting, validation, per-cell workload resolution (JSON overlay
// included) and the spec fingerprint. The trials themselves are identical
// either way (RunFigure is RunRegistered), so this — not a second full
// figure run — is the dispatch overhead. internal/devtools/benchjson
// (a CI step) asserts it stays under 5% of the same-run QuickFig3Serial
// figure time, which both proves the "<5% dispatch tax" claim structurally
// and catches anyone later making scenario interpretation expensive.
func BenchmarkScenarioDispatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, ok := ScenarioByName("fig3")
		if !ok {
			b.Fatal("fig3 not registered")
		}
		sc = sc.withDefaults()
		if err := sc.Validate(); err != nil {
			b.Fatal(err)
		}
		for _, c := range sc.Cells {
			ws := c.Workload
			if ws == nil {
				ws = sc.Workload
			}
			if _, err := ws.Resolve(true); err != nil {
				b.Fatal(err)
			}
		}
		if sc.Fingerprint() == "" {
			b.Fatal("empty fingerprint")
		}
	}
}

func BenchmarkQuickFig3Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure(3, Config{Quick: true, Reps: 2, Seed: 1234, Executor: Pool{Workers: 0}}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSeedForMatchesSubstreamContract(t *testing.T) {
	// The historical in-package derivation moved to sim.Substream; figure
	// cells must keep drawing the exact same seeds (reference values pinned
	// from the pre-move implementation).
	if got := seedFor(42, 2, 0, 0); got != 0xc8a42f52e7093f01 {
		t.Fatalf("seedFor(42,2,0,0) = %#x — figure seeds changed", got)
	}
}
