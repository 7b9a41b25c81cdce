package trace

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// traceRig builds a collector plus two warmed-up tasks (one grouped by
// name) so the steady-state guard exercises interned keys, cached
// histogram pointers and the flat CPU-busy table for every event kind.
func traceRig() (*Collector, []*sched.Task) {
	col := NewCollector(ByTaskName)
	tasks := []*sched.Task{
		{ID: 0, Spec: sched.TaskSpec{Name: "web"}},
		{ID: 1, Spec: sched.TaskSpec{Name: "db"}},
	}
	return col, tasks
}

// allKindEvents drives one full lifecycle of task t through the collector:
// spawn, wake, run, block (every reason), rerun, throttle, finish — every
// TraceEvent kind and every off-CPU reason histogram.
func allKindEvents(col *Collector, t *sched.Task, at *sim.Time) {
	tick := func() sim.Time { *at += sim.Microsecond; return *at }
	h := col.handle
	h(sched.TraceEvent{Kind: sched.TraceSpawn, Task: t, CPU: -1, At: tick()})
	h(sched.TraceEvent{Kind: sched.TraceWake, Task: t, CPU: -1, At: tick()})
	for _, reason := range []sched.BlockKind{sched.BlockNone, sched.BlockIO, sched.BlockRecv, sched.BlockSleep} {
		h(sched.TraceEvent{Kind: sched.TraceRunStart, Task: t, CPU: 2, At: tick()})
		h(sched.TraceEvent{Kind: sched.TraceRunEnd, Task: t, CPU: 2, At: tick()})
		h(sched.TraceEvent{Kind: sched.TraceBlock, Task: t, CPU: -1, At: tick(), Block: reason})
		h(sched.TraceEvent{Kind: sched.TraceWake, Task: t, CPU: -1, At: tick()})
	}
	h(sched.TraceEvent{Kind: sched.TraceThrottle, CPU: -1, At: tick(), Group: "g"})
	h(sched.TraceEvent{Kind: sched.TraceFinish, Task: t, CPU: -1, At: tick()})
}

// TestCollectorHandleZeroAllocSteadyState is the zero-alloc contract of the
// trace pipeline: once a task's key is interned and its histograms exist,
// no TraceEvent kind allocates.
func TestCollectorHandleZeroAllocSteadyState(t *testing.T) {
	col, tasks := traceRig()
	var at sim.Time
	// Warm up: intern keys, create every histogram, size the busy table.
	for _, tk := range tasks {
		allKindEvents(col, tk, &at)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, tk := range tasks {
			allKindEvents(col, tk, &at)
		}
	}); n != 0 {
		t.Fatalf("Collector.handle allocates %v per full event cycle, want 0", n)
	}
	if col.Events() == 0 || col.ThrottleCount("g") == 0 {
		t.Fatal("events must have been consumed")
	}
}

// TestCollectorExportZeroAllocSteadyState guards the extraction path: once
// the first report sized the scratch buffers, enumerating keys, per-reason
// histograms and per-CPU busy time allocates nothing.
func TestCollectorExportZeroAllocSteadyState(t *testing.T) {
	col, tasks := traceRig()
	var at sim.Time
	for _, tk := range tasks {
		allKindEvents(col, tk, &at)
	}
	var busyCPUs int
	var busyTotal sim.Time
	var throttled uint64
	visitBusy := func(_ int, d sim.Time) { busyCPUs++; busyTotal += d }
	visitThr := func(_ string, n uint64) { throttled += n }
	extract := func() {
		for _, k := range col.sortedKeys() {
			col.visitReasons(k, func(_ sched.BlockKind, h *Hist) { _ = h.Count() })
		}
		col.VisitCPUBusy(visitBusy)
		col.VisitThrottles(visitThr)
	}
	extract() // size the scratch
	busyCPUs, busyTotal, throttled = 0, 0, 0
	if n := testing.AllocsPerRun(100, extract); n != 0 {
		t.Fatalf("export path allocates %v per extraction, want 0", n)
	}
	if busyCPUs == 0 || busyTotal == 0 || throttled == 0 {
		t.Fatal("extraction must have visited busy CPUs and throttles")
	}
}

// TestCollectorResetReuseZeroAlloc is the whole-run steady-state contract: a
// collector Reset between runs tracks a fresh task population — new task
// pointers, every event kind — without a single allocation.
func TestCollectorResetReuseZeroAlloc(t *testing.T) {
	col, tasks := traceRig()
	var at sim.Time
	for _, tk := range tasks {
		allKindEvents(col, tk, &at)
	}
	// A different task population with the same cardinality: fresh pointers
	// force the track map and recycled track pool through their reuse path.
	fresh := []*sched.Task{
		{ID: 10, Spec: sched.TaskSpec{Name: "web"}},
		{ID: 11, Spec: sched.TaskSpec{Name: "db"}},
	}
	run := func() {
		col.Reset()
		for _, tk := range fresh {
			allKindEvents(col, tk, &at)
		}
	}
	run() // reach steady state (freeTracks capacity, map buckets)
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("Reset+rerun allocates %v per run, want 0", n)
	}
	if col.Events() == 0 || col.OnCPUHist("web").Count() == 0 {
		t.Fatal("reused collector must still collect")
	}
	if col.ThrottleCount("g") == 0 {
		t.Fatal("reused collector must still count throttles")
	}
}

// TestCollectorKeyFnCalledOncePerTask: the KeyFn runs at a task's first
// event only; later events reuse the interned id even if the KeyFn would
// now disagree.
func TestCollectorKeyFnCalledOncePerTask(t *testing.T) {
	calls := 0
	col := NewCollector(func(tk *sched.Task) string {
		calls++
		return tk.Spec.Name
	})
	task := &sched.Task{ID: 7, Spec: sched.TaskSpec{Name: "once"}}
	var at sim.Time
	for i := 0; i < 5; i++ {
		allKindEvents(col, task, &at)
	}
	if calls != 1 {
		t.Fatalf("KeyFn ran %d times, want exactly 1 (interned per task)", calls)
	}
	if col.OnCPUHist("once") == nil || col.OnCPUHist("once").Count() == 0 {
		t.Fatal("interned key must still collect samples")
	}
}

// TestBlockKindTableCoversEnum is the tripwire for nBlockKinds: it must be
// exactly the number of defined BlockKinds, so a kind added to sched after
// BlockSleep fails here instead of panicking mid-run (or worse, silently
// misfiling samples).
func TestBlockKindTableCoversEnum(t *testing.T) {
	if sched.BlockKind(nBlockKinds).String() != "unknown" {
		t.Fatalf("BlockKind %d is defined but outside the off-CPU table — grow nBlockKinds", nBlockKinds)
	}
	if sched.BlockKind(nBlockKinds-1).String() == "unknown" {
		t.Fatalf("off-CPU table has %d slots but the last one is undefined", nBlockKinds)
	}
}

// TestCollectorViewsShareFastPathHists: the accessors read the interned
// tables — the same *Hist the fast path records into.
func TestCollectorViewsShareFastPathHists(t *testing.T) {
	col, tasks := traceRig()
	var at sim.Time
	allKindEvents(col, tasks[0], &at)
	key := "web"
	before := col.OnCPUHist(key).Count()
	if before == 0 {
		t.Fatal("cpudist view empty")
	}
	allKindEvents(col, tasks[0], &at)
	if col.OnCPUHist(key).Count() <= before {
		t.Fatal("cpudist accessor must track fast-path records")
	}
	for _, reason := range []sched.BlockKind{sched.BlockIO, sched.BlockRecv, sched.BlockSleep} {
		if h := col.OffCPUHist(key, reason); h == nil || h.Count() == 0 {
			t.Fatalf("offcputime[%v] view missing", reason)
		}
	}
	if h := col.RunqHist(key); h == nil || h.Count() == 0 {
		t.Fatal("runqlat view missing")
	}
	var busyCPUs []int
	col.VisitCPUBusy(func(cpu int, _ sim.Time) { busyCPUs = append(busyCPUs, cpu) })
	if len(busyCPUs) != 1 || busyCPUs[0] != 2 {
		t.Fatalf("cpu busy CPUs = %v, want exactly cpu2", busyCPUs)
	}
}
