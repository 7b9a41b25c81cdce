package experiments

// The trial runner. Every figure and sweep in this package reduces to a
// grid of independent trials: one (series, cell, repetition) simulation
// whose seed is derived up front with sim.Substream, so the trial's result
// is a pure function of (Config, host, spec, workload, memGB, seed). That
// purity is what makes both fan-out and durability safe: an Executor
// (executor.go) decides which trials run here and on how many goroutines,
// and a TrialStore (trialstore.go) replays any trial an earlier run — in
// this process or any other — already simulated. Results are always
// written to index-addressed slots, so the assembled figure is
// bit-identical no matter how trials were scheduled, sharded or cached.

import (
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TrialResult is the memoizable outcome of one simulated trial.
type TrialResult struct {
	// Metric is the workload metric in seconds (per-figure definition).
	Metric float64
	// Breakdown is the machine's overhead attribution for the run.
	Breakdown sched.Breakdown
}

// forEachTrial executes run(0..n-1) through the configured executor and
// reports the first (lowest-index) error. The default is Pool{Workers:
// cfg.Workers} — the atomic-claim worker fan-out, running on the calling
// goroutine at Workers 1. cfg.Progress, when set, is observed after
// every completed trial.
func forEachTrial(cfg Config, n int, run func(tc *TrialContext, i int) error) error {
	ex := cfg.Executor
	if ex == nil {
		ex = Pool{Workers: cfg.Workers}
	}
	return ex.Execute(n, run, cfg.Progress)
}

// runTrial is runStack behind the trial store: on a hit the simulation is
// skipped entirely and the stored result replayed — from memory within a
// process, from disk across processes when the store is durable.
func runTrial(tc *TrialContext, cfg Config, host *topology.Topology, stack platform.Stack, size int, ws []workload.Workload, memGB int, seed uint64) (TrialResult, error) {
	if cfg.Memo == nil {
		v, bd, err := runStack(tc, cfg, host, stack, size, ws, memGB, seed)
		return TrialResult{Metric: v, Breakdown: bd}, err
	}
	key := trialKey(cfg, host, stack, size, ws, memGB, seed)
	return cfg.Memo.GetOrCompute(key, func() (TrialResult, error) {
		v, bd, err := runStack(tc, cfg, host, stack, size, ws, memGB, seed)
		if err != nil {
			return TrialResult{}, err
		}
		return TrialResult{Metric: v, Breakdown: bd}, nil
	})
}
