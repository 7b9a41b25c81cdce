package experiments

// The pluggable trial-execution strategy. Every experiment in this package
// reduces to a grid of independent trials addressed by index; an Executor
// decides which of those indices run here and on how many goroutines,
// while result placement stays index-addressed — so the assembled output
// is bit-identical no matter which executor ran it. Pool is the
// atomic-claim worker fan-out and Shard a deterministic partition of the
// grid for running one experiment across N machines whose durable stores
// are merged afterwards.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Executor runs the n independent trials of one grid.
type Executor interface {
	// Execute calls run(tc, i) for the executor's share of indices 0..n-1
	// and reports the first (lowest-index) error among the trials it
	// claimed. run must write its result into an index-addressed slot owned
	// by that trial alone. tc is the calling worker's TrialContext — the
	// per-goroutine deployment-reuse arena; an executor hands each worker
	// its own and never shares one between concurrently running trials
	// (nil degrades run to always building fresh). progress, when non-nil,
	// observes (done, total) after every completed trial — total is the
	// number of trials this executor will run, and implementations
	// serialize the calls.
	Execute(n int, run func(tc *TrialContext, i int) error, progress func(done, total int)) error
}

// TrialPanic records one trial whose run panicked twice (the initial run
// and the containment retry).
type TrialPanic struct {
	// Index is the trial's grid index.
	Index int
	// Value is what the second panic carried.
	Value any
	// Stack is the goroutine stack captured at the second panic.
	Stack string
}

// TrialPanicsError is Pool's end-of-sweep report of contained panics: the
// sweep ran to completion — every other trial's result is in place — and
// only the panicking trials' slots are unfilled. Sitting behind the error
// interface keeps the legacy Executor contract while letting callers
// distinguish "this figure is missing k cells" from "the run aborted".
type TrialPanicsError struct {
	// Panics lists the persistently panicking trials in ascending index
	// order.
	Panics []TrialPanic
	// Trials is the grid size the sweep covered.
	Trials int
}

// Error implements error with a summary plus the first panic's detail; the
// remaining stacks stay available on the struct.
func (e *TrialPanicsError) Error() string {
	first := e.Panics[0]
	return fmt.Sprintf("experiments: %d of %d trials panicked (retried once each); first: trial %d: %v\n%s",
		len(e.Panics), e.Trials, first.Index, first.Value, first.Stack)
}

// containTrial runs one trial with panic containment: a panicking trial is
// retried once (transient panics heal invisibly), and a second panic is
// captured as a TrialPanic instead of unwinding the worker. The retry runs
// with the worker's reuse arena discarded — the panic may have left a
// half-rewound machine in it.
func containTrial(run func(tc *TrialContext, i int) error, tc *TrialContext, i int) (err error, pan *TrialPanic) {
	attempt := func() (err error, pan *TrialPanic) {
		defer func() {
			if r := recover(); r != nil {
				err = nil
				pan = &TrialPanic{Index: i, Value: r, Stack: string(debug.Stack())}
			}
		}()
		return run(tc, i), nil
	}
	if err, pan = attempt(); pan == nil {
		return err, nil
	}
	tc.discard()
	return attempt()
}

// Pool fans trials out across a goroutine pool; workers claim indices from
// a shared atomic counter. Workers 0 means GOMAXPROCS; 1 (or negative)
// runs the claims on the calling goroutine.
//
// Pool contains trial panics: a panicking trial is retried once, and
// trials that panic twice are reported together at the end (as a
// *TrialPanicsError) after every other trial has run — one poisoned
// configuration costs its own figure cell, not a 100k-trial sweep.
type Pool struct {
	Workers int
}

// count resolves the pool size for n trials.
func (p Pool) count(n int) int {
	w := p.Workers
	switch {
	case w == 0:
		w = runtime.GOMAXPROCS(0)
	case w < 0:
		w = 1
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Execute implements Executor.
func (p Pool) Execute(n int, run func(tc *TrialContext, i int) error, progress func(done, total int)) error {
	if n <= 0 {
		return nil
	}
	workers := p.count(n)

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		done     int
		firstErr error
		errIdx   = n
		panics   []TrialPanic
	)
	observe := func() {
		if progress == nil {
			return
		}
		// The increment and the callback share one critical section so
		// observed counts are strictly monotonic.
		mu.Lock()
		done++
		progress(done, n)
		mu.Unlock()
	}
	worker := func() {
		tc := new(TrialContext)
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			err, pan := containTrial(run, tc, i)
			if pan != nil {
				// A persistently panicking trial poisons only its own slot:
				// record it, keep sweeping, report the batch at the end.
				mu.Lock()
				panics = append(panics, *pan)
				mu.Unlock()
				continue
			}
			if err != nil {
				// Stop claiming new trials, but keep the lowest-index
				// error among those already claimed: the failing claim
				// outranks every index it prevented from running, so
				// the reported error is as deterministic as in a
				// one-goroutine run.
				failed.Store(true)
				mu.Lock()
				if i < errIdx {
					errIdx, firstErr = i, err
				}
				mu.Unlock()
				continue
			}
			observe()
		}
	}
	if workers == 1 {
		// No goroutines at all.
		worker()
	} else {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return firstErr
	}
	if len(panics) > 0 {
		sort.Slice(panics, func(a, b int) bool { return panics[a].Index < panics[b].Index })
		return &TrialPanicsError{Panics: panics, Trials: n}
	}
	return nil
}

// Shard deterministically partitions the trial grid: shard Index of Count
// owns every Count-th index starting at Index, so N shard runs with the
// same grid cover every trial exactly once regardless of machine or
// timing. Pair it with a durable store — each shard persists its
// partition, and a later merge run assembles the identical figure with
// zero recomputation. An experiment's indices are its claim order
// (forEachCellTrial: every cell's repetition 0 first), so when Count
// divides a grid's cell count each shard owns whole cells.
type Shard struct {
	// Index identifies this shard, 0 ≤ Index < Count.
	Index, Count int
	// Inner executes the shard's subset (nil = Pool{}).
	Inner Executor
}

// Execute implements Executor.
func (s Shard) Execute(n int, run func(tc *TrialContext, i int) error, progress func(done, total int)) error {
	if s.Count <= 0 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("experiments: invalid shard %d/%d (want 0 ≤ index < count)", s.Index, s.Count)
	}
	idx := make([]int, 0, (n+s.Count-1)/s.Count)
	for i := s.Index; i < n; i += s.Count {
		idx = append(idx, i)
	}
	inner := s.Inner
	if inner == nil {
		inner = Pool{}
	}
	return inner.Execute(len(idx), func(tc *TrialContext, j int) error { return run(tc, idx[j]) }, progress)
}

// ParseShard parses the CLI -shard form "i/n" (0-based, e.g. "0/2", "1/2").
func ParseShard(s string) (index, count int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("experiments: bad shard %q (want i/n, e.g. 0/2)", s)
	}
	index, err1 := strconv.Atoi(i)
	count, err2 := strconv.Atoi(n)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("experiments: bad shard %q (want i/n, e.g. 0/2)", s)
	}
	if count <= 0 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("experiments: bad shard %q (want 0 ≤ i < n)", s)
	}
	return index, count, nil
}
