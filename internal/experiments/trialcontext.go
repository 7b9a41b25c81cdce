package experiments

// Per-worker deployment reuse. The dominant cost of a cold quick sweep is
// not the simulations themselves but rebuilding the whole platform stack —
// machine, scheduler arenas, cgroup controller, IRQ channels — for every
// (series, cell, repetition) trial, even though trials sharing a machine
// shape differ only in configuration and seed. A TrialContext is the arena
// one executor worker threads through its trials: it holds a
// platform.Pool, which keeps one machine arena per distinct innermost
// topology and rewinds it in place (machine.Reset via
// platform.RedeployStack) instead of rebuilding. Results are bit-identical
// either way — a reset machine replays the same event sequence a fresh one
// would — which the reuse-equivalence tests pin.

import (
	"sync/atomic"

	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TrialContext is one worker goroutine's reuse arena. Executors hand every
// run callback the calling worker's context; it is never shared between
// concurrently running trials, so it needs no locking. The zero value is
// ready to use, and a nil *TrialContext degrades every path to the
// build-fresh behavior.
type TrialContext struct {
	pool platform.Pool
	// insts is the reusable per-trial instance buffer (one slot per tenant),
	// so trials allocate no instance list regardless of tenant count.
	insts []workload.Instance
	// miss is simulatePending bound once, the store's miss callback for
	// every trial this worker runs; pending is the trial it answers.
	miss    func() (TrialResult, error)
	pending pendingTrial
}

// pendingTrial is what runTrial's miss callback needs of the trial the
// store is asked for.
type pendingTrial struct {
	cfg  Config
	cell *trialCell
	in   trialInput
}

// simulatePending simulates, or shares, the trial runTrial last handed
// the store. Stores call the miss callback before GetOrCompute returns,
// and a context serves one trial at a time, so pending is that trial.
func (tc *TrialContext) simulatePending() (TrialResult, error) {
	p := &tc.pending
	return simulateOrShare(tc, p.cfg, &p.cell.slot, p.in)
}

// Process-wide deployment counters, surfaced by the CLIs' -v stats.
var (
	deploysBuilt  atomic.Uint64
	deploysReused atomic.Uint64
	// trialsShared counts repetitions answered from their cell's seed-free
	// slot (simulateOrShare): store misses that simulated nothing.
	trialsShared atomic.Uint64
)

// DeployStats reports how many trial deployments were built from scratch
// and how many rewound an existing machine arena in place since process
// start.
func DeployStats() (built, reused uint64) {
	return deploysBuilt.Load(), deploysReused.Load()
}

// SharedRepetitions reports how many trials since process start returned
// their cell's seed-free result instead of deploying and simulating.
func SharedRepetitions() uint64 { return trialsShared.Load() }

// deploy returns a deployment for the trial, reusing the worker's pooled
// arena for the machine shape when possible. A nil context builds fresh.
// The host and hypervisor configurations are the calibrated defaults with
// the trial's ablations applied.
func (tc *TrialContext) deploy(in trialInput) (*platform.Deployment, error) {
	hostCfg := machine.HostDefaults(in.host, in.seed)
	in.ablate.Apply(&hostCfg)
	hv := hypervisor.ParamsFor(in.ablate)
	if tc == nil {
		d, err := platform.DeployStack(in.stack, in.size, hostCfg, hv, in.seed)
		if err == nil {
			deploysBuilt.Add(1)
		}
		return d, err
	}
	d, reused, err := tc.pool.Deploy(in.stack, in.size, hostCfg, hv, in.seed)
	if err != nil {
		return nil, err
	}
	if reused {
		deploysReused.Add(1)
	} else {
		deploysBuilt.Add(1)
	}
	return d, nil
}

// instances returns an n-slot instance buffer for one trial, reusing the
// context's backing array. Every slot is overwritten by the caller before
// use.
func (tc *TrialContext) instances(n int) []workload.Instance {
	if tc == nil {
		return make([]workload.Instance, n)
	}
	if cap(tc.insts) < n {
		tc.insts = make([]workload.Instance, n)
	}
	tc.insts = tc.insts[:n]
	return tc.insts
}

// discard drops every cached arena. Panic containment calls it before
// retrying a trial: a panic may have fired mid-deploy, leaving a
// half-rewound machine in the pool.
func (tc *TrialContext) discard() {
	if tc != nil {
		tc.pool.Clear()
	}
}
