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
//
// Purity also licenses one shortcut inside a single experiment call: a
// trial whose run drew no random number is a pure function of everything
// but its seed, so every repetition of its cell has the same result. The
// first such repetition to finish publishes it, and the cell's later
// repetitions return it instead of simulating (simulateOrShare). The
// sharing relies on every cell's repetition 0 being claimed before any
// later repetition (forEachCellTrial); a repetition claimed while its
// cell's first run is still going simulates too. Each of
// them still passes through the store under its own per-seed key, so the
// store sees exactly the trials it would have seen otherwise, and which
// worker simulated first cannot change a byte of the output. Those keys
// differ only in the seed, which comes last, so a cell hashes the rest of
// its key once (trialCell) and each repetition hashes only its seed.

import (
	"sync/atomic"

	"repro/internal/machine"
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
// reports the first (lowest-index) error. The default is Pool{} — the
// atomic-claim worker fan-out across GOMAXPROCS goroutines. cfg.Progress,
// when set, is observed after every completed trial.
func forEachTrial(cfg Config, n int, run func(tc *TrialContext, i int) error) error {
	ex := cfg.Executor
	if ex == nil {
		ex = Pool{}
	}
	return ex.Execute(n, run, cfg.Progress)
}

// forEachCellTrial runs the nCells × reps trials of a grid through
// forEachTrial, claiming every cell's repetition 0 before any repetition
// ≥ 1: claim j runs cell j mod nCells, repetition j div nCells. A seed-free
// cell's repetition 0 has then started, usually finished, before another
// worker claims its repetition 1, so the later repetition shares its
// result instead of simulating beside it. Callers keep their results
// index-addressed by (cell, rep), so the claim order changes no output.
// forEachTrial's lowest-index error is the lowest claim index here: a
// grid with several failing trials reports the first failing cell in
// repetition-major order.
func forEachCellTrial(cfg Config, nCells, reps int, run func(tc *TrialContext, cell, rep int) error) error {
	return forEachTrial(cfg, nCells*reps, func(tc *TrialContext, j int) error {
		return run(tc, j%nCells, j/nCells)
	})
}

// trialInput is one trial's inputs besides the run-wide Config: the host it
// deploys onto, the platform stack and instance size, the workloads (one
// for every tenant, or exactly one per tenant), the memory size, the seed
// and the overhead mechanisms switched off.
type trialInput struct {
	host   *topology.Topology
	stack  platform.Stack
	size   int
	ws     []workload.Workload
	memGB  int
	seed   uint64
	ablate machine.Ablation
}

// trialCell is what the repetitions of one cell share for the length of
// one experiment call: the seed-free result slot (simulateOrShare) and the
// FNV-1a state of its key up to the seed (trialCell.key). tailDone is set
// once tailSum holds that state.
type trialCell struct {
	slot     atomic.Pointer[TrialResult]
	tailSum  atomic.Uint64
	tailDone atomic.Bool
}

// runTrial is runStack behind the trial store: on a hit the simulation is
// skipped entirely and the stored result replayed — from memory within a
// process, from disk across processes when the store is durable. A miss
// goes to simulateOrShare with the cell's seed-free slot. With a context
// the miss callback is the worker's own (TrialContext.simulatePending),
// so a warm hit allocates nothing; a nil context builds a closure.
func runTrial(tc *TrialContext, cfg Config, cell *trialCell, in trialInput) (TrialResult, error) {
	if cfg.Memo == nil {
		return simulateOrShare(tc, cfg, &cell.slot, in)
	}
	key := cell.key(cfg, in)
	if tc == nil {
		return cfg.Memo.GetOrCompute(key, func() (TrialResult, error) {
			return simulateOrShare(tc, cfg, &cell.slot, in)
		})
	}
	if tc.miss == nil {
		tc.miss = tc.simulatePending
	}
	tc.pending = pendingTrial{cfg: cfg, cell: cell, in: in}
	return cfg.Memo.GetOrCompute(key, tc.miss)
}

// simulateOrShare answers one repetition of a cell. slot is the cell's
// seed-free result for the length of one experiment call: the first
// repetition whose run drew no random number publishes its result there,
// and every later repetition of the cell returns it without deploying or
// simulating. That is exact, not approximate. The trial seed reaches a
// simulation only through the machine's RNG (machine.Config.Seed →
// RNG.Reseed; the host defaults, the layer fold and the guest overlay only
// copy it), so a run that never read its RNG took the same path, and
// produced the same Metric and Breakdown, that it would have under any
// other seed. Only successful runs publish; a timed-out run is
// deterministic too, so it may.
func simulateOrShare(tc *TrialContext, cfg Config, slot *atomic.Pointer[TrialResult], in trialInput) (TrialResult, error) {
	if r := slot.Load(); r != nil {
		trialsShared.Add(1)
		return *r, nil
	}
	r, seedFree, err := runStack(tc, cfg, in)
	if err != nil {
		return TrialResult{}, err
	}
	if seedFree {
		published := r
		slot.CompareAndSwap(nil, &published)
	}
	return r, nil
}
