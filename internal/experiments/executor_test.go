package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestShardPartitionCoversEveryIndexOnce: the union of all shards runs
// every index exactly once, and each shard's subset is the deterministic
// modulo partition regardless of the inner executor.
func TestShardPartitionCoversEveryIndexOnce(t *testing.T) {
	const n = 101
	for _, count := range []int{1, 2, 3, 7} {
		var ran [n]atomic.Int64
		for idx := 0; idx < count; idx++ {
			err := Shard{Index: idx, Count: count, Inner: Pool{Workers: 3}}.Execute(n, func(tc *TrialContext, i int) error {
				if i%count != idx {
					t.Errorf("shard %d/%d claimed index %d", idx, count, i)
				}
				ran[i].Add(1)
				return nil
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Fatalf("count=%d: index %d ran %d times", count, i, c)
			}
		}
	}
}

// TestShardProgressTotalIsSubsetSize: a shard reports progress against the
// number of trials it will actually run, not the whole grid.
func TestShardProgressTotalIsSubsetSize(t *testing.T) {
	const n = 10
	var last, total int
	err := Shard{Index: 1, Count: 3, Inner: Pool{Workers: 1}}.Execute(n, func(tc *TrialContext, i int) error { return nil },
		func(done, tot int) { last, total = done, tot })
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || last != 3 { // indices 1, 4, 7
		t.Fatalf("progress reached %d/%d, want 3/3", last, total)
	}
}

// TestShardRejectsBadBounds locks the validation error.
func TestShardRejectsBadBounds(t *testing.T) {
	for _, s := range []Shard{{Index: 0, Count: 0}, {Index: -1, Count: 2}, {Index: 2, Count: 2}} {
		if err := s.Execute(5, func(*TrialContext, int) error { return nil }, nil); err == nil {
			t.Fatalf("shard %d/%d: expected an error", s.Index, s.Count)
		}
	}
}

// TestParseShard covers the CLI form.
func TestParseShard(t *testing.T) {
	i, n, err := ParseShard("1/2")
	if err != nil || i != 1 || n != 2 {
		t.Fatalf("ParseShard(1/2) = %d, %d, %v", i, n, err)
	}
	for _, bad := range []string{"", "2", "2/2", "-1/2", "0/0", "a/b", "1/2/3"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Fatalf("ParseShard(%q): expected an error", bad)
		}
	}
}

// TestConfigExecutorOverridesPool: a Config-level executor replaces the
// default pool for every grid the runner fans out.
func TestConfigExecutorOverridesPool(t *testing.T) {
	var claimed []int
	cfg := Config{Executor: recordingExecutor{&claimed}}
	if err := forEachTrial(cfg, 4, func(tc *TrialContext, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(claimed) != 4 {
		t.Fatalf("custom executor saw %d trials, want 4", len(claimed))
	}
}

type recordingExecutor struct{ claimed *[]int }

func (r recordingExecutor) Execute(n int, run func(tc *TrialContext, i int) error, progress func(done, total int)) error {
	tc := new(TrialContext)
	for i := 0; i < n; i++ {
		*r.claimed = append(*r.claimed, i)
		if err := run(tc, i); err != nil {
			return err
		}
	}
	return nil
}

// TestScenarioShardMergeEqualsUnsharded is the end-to-end shard contract:
// two shard runs persisting into durable stores, merged into a warm store,
// re-render a figure identical to the unsharded run — with zero
// simulations in the merge run.
func TestScenarioShardMergeEqualsUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick figure three times")
	}
	cfg := Config{Seed: 42, Quick: true, Executor: Pool{Workers: 2}}
	direct, err := RunRegistered("fig3", cfg)
	if err != nil {
		t.Fatal(err)
	}

	dirs := []string{t.TempDir(), t.TempDir()}
	for idx, dir := range dirs {
		st, err := OpenTrialStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		shardCfg := cfg
		shardCfg.Memo = st
		shardCfg.Executor = Shard{Index: idx, Count: len(dirs), Inner: Pool{Workers: 2}}
		if _, err := RunRegistered("fig3", shardCfg); err != nil {
			t.Fatalf("shard %d: %v", idx, err)
		}
		if st.Stats().Misses == 0 {
			t.Fatalf("shard %d simulated nothing", idx)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	memo := NewTrialMemo()
	if err := MergeTrialStores(memo, dirs...); err != nil {
		t.Fatal(err)
	}
	mergeCfg := cfg
	mergeCfg.Memo = memo
	merged, err := RunRegistered("fig3", mergeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Misses != 0 {
		t.Fatalf("merge run simulated %d trials, want 0", memo.Stats().Misses)
	}
	var a, b strings.Builder
	direct.RenderText(&a)
	merged.RenderText(&b)
	if a.String() != b.String() {
		t.Fatalf("merged figure diverged from the unsharded run:\n%s\nvs\n%s", b.String(), a.String())
	}
}

// TestPoolRetriesTransientPanic: a trial that panics once and then
// succeeds on the containment retry is invisible — no error, every index
// ran.
func TestPoolRetriesTransientPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var tripped atomic.Bool
		var ran [8]atomic.Int64
		err := Pool{Workers: workers}.Execute(8, func(tc *TrialContext, i int) error {
			if i == 5 && tripped.CompareAndSwap(false, true) {
				panic("transient trial panic")
			}
			ran[i].Add(1)
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("workers=%d: contained retry still errored: %v", workers, err)
		}
		for i := range ran {
			if ran[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, ran[i].Load())
			}
		}
	}
}

// TestPoolReportsPersistentPanics: a trial that panics on both attempts is
// reported at the end as a TrialPanicsError — after every other trial has
// completed, not instead of them.
func TestPoolReportsPersistentPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 20
		var ran [n]atomic.Int64
		err := Pool{Workers: workers}.Execute(n, func(tc *TrialContext, i int) error {
			if i == 7 || i == 13 {
				panic(fmt.Sprintf("poisoned trial %d", i))
			}
			ran[i].Add(1)
			return nil
		}, nil)
		var tpe *TrialPanicsError
		if !errors.As(err, &tpe) {
			t.Fatalf("workers=%d: err = %v, want a *TrialPanicsError", workers, err)
		}
		if len(tpe.Panics) != 2 || tpe.Panics[0].Index != 7 || tpe.Panics[1].Index != 13 || tpe.Trials != n {
			t.Fatalf("workers=%d: report = %+v, want trials 7 and 13 of %d", workers, tpe, n)
		}
		if !strings.Contains(err.Error(), "poisoned trial 7") || !strings.Contains(err.Error(), "2 of 20") {
			t.Fatalf("workers=%d: error text %q lacks the summary", workers, err)
		}
		if tpe.Panics[0].Stack == "" {
			t.Fatalf("workers=%d: panic report lost the stack", workers)
		}
		for i := range ran {
			want := int64(1)
			if i == 7 || i == 13 {
				want = 0
			}
			if ran[i].Load() != want {
				t.Fatalf("workers=%d: index %d ran %d times, want %d", workers, i, ran[i].Load(), want)
			}
		}
	}
}

// TestPoolErrorOutranksPanicReport: the legacy stop-early error contract
// wins over the end-of-sweep panic report.
func TestPoolErrorOutranksPanicReport(t *testing.T) {
	boom := errors.New("trial failed")
	err := Pool{Workers: 1}.Execute(6, func(tc *TrialContext, i int) error {
		if i == 1 {
			panic("poisoned")
		}
		if i == 3 {
			return boom
		}
		return nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the trial error, not the panic report", err)
	}
}

// panicOnce wraps Pool and panics inside the wrapped run exactly once —
// the first trial any worker starts — before the trial does any work.
type panicOnce struct {
	inner   Pool
	tripped *atomic.Bool
}

func (p panicOnce) Execute(n int, run func(tc *TrialContext, i int) error, progress func(done, total int)) error {
	return p.inner.Execute(n, func(tc *TrialContext, i int) error {
		if p.tripped.CompareAndSwap(false, true) {
			panic("flaky trial")
		}
		return run(tc, i)
	}, progress)
}

// TestFigureSurvivesTransientTrialPanic is the end-to-end containment
// contract: a trial that panics once (then heals) must not change a
// figure's rendered bytes.
func TestFigureSurvivesTransientTrialPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick figure twice")
	}
	base := Config{Seed: 42, Quick: true, Executor: Pool{Workers: 2}}
	clean, err := RunRegistered("fig3", base)
	if err != nil {
		t.Fatal(err)
	}
	var tripped atomic.Bool
	faulty := base
	faulty.Executor = panicOnce{inner: Pool{Workers: 2}, tripped: &tripped}
	survived, err := RunRegistered("fig3", faulty)
	if err != nil {
		t.Fatalf("figure run died on a transient trial panic: %v", err)
	}
	if !tripped.Load() {
		t.Fatal("the fault never fired")
	}
	var a, b strings.Builder
	clean.RenderText(&a)
	survived.RenderText(&b)
	if a.String() != b.String() {
		t.Fatalf("figure changed after a contained panic:\n%s\nvs\n%s", b.String(), a.String())
	}
}
