// Package experiments reproduces the paper's evaluation: every figure
// (Figs 3–8) and table (Tables I–III), the §IV-A CHR analysis and the §IV
// PTO/PSO overhead decomposition. Each runner returns a Figure value that
// renders as text or CSV and that the benchmark harness and tests consume.
//
// Every experiment decomposes into a grid of independent trials — one
// seeded simulation per (series, cell, repetition) — executed by the
// trial runner (runner.go) through a pluggable Executor (executor.go):
// trials fan out across a Pool of goroutines (or a deterministic
// shard of the grid, for multi-machine runs) with results that are
// bit-identical to a serial run, and an optional Config.Memo — in-memory
// memo or durable disk-backed store (trialstore.go) — skips trials that
// an earlier run, in this process or any other, already simulated.
// Beyond the paper's fixed figures, Sweep (sweep.go) runs arbitrary
// user-defined grids of platforms × CHR points × workloads × memory sizes
// through the same machinery; cmd/pinsweep is its CLI.
package experiments

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// InstanceType is a row of Table II.
type InstanceType struct {
	Name  string
	Cores int
	MemGB int
}

// InstanceTypes is Table II: the instance sizes used for evaluation.
var InstanceTypes = []InstanceType{
	{"Large", 2, 8},
	{"xLarge", 4, 16},
	{"2xLarge", 8, 32},
	{"4xLarge", 16, 64},
	{"8xLarge", 32, 128},
	{"16xLarge", 64, 256},
}

// InstanceByName returns the Table II row with the given name.
func InstanceByName(name string) (InstanceType, bool) {
	for _, it := range InstanceTypes {
		if it.Name == name {
			return it, true
		}
	}
	return InstanceType{}, false
}

// Instances returns the Table II rows from first to last inclusive.
func Instances(first, last string) []InstanceType {
	var out []InstanceType
	in := false
	for _, it := range InstanceTypes {
		if it.Name == first {
			in = true
		}
		if in {
			out = append(out, it)
		}
		if it.Name == last {
			break
		}
	}
	return out
}

// PlatformRow is a row of Table III.
type PlatformRow struct {
	Abbr, Platform, Specifications string
}

// PlatformTable is Table III.
var PlatformTable = []PlatformRow{
	{"BM", "Bare-Metal", "Ubuntu 18.04.3, Kernel 5.4.5"},
	{"VM", "Virtual Machine", "Qemu 2.11.1, Libvirt 4, Ubuntu 18.04.3"},
	{"CN", "Container on Bare-Metal", "Docker 19.03.6, Ubuntu 18.04 image"},
	{"VMCN", "Container on VM", "As above"},
}

// AppRow is a row of Table I.
type AppRow struct {
	Type, Version, Characteristic string
}

// AppTable is Table I.
var AppTable = []AppRow{
	{"FFmpeg", "3.4.6", "CPU-bound workload"},
	{"Open MPI", "2.1.1", "HPC workload"},
	{"WordPress", "5.3.2", "IO-bound web-based workload"},
	{"Cassandra", "2.2", "Big Data (NoSQL) workload"},
}

// Config controls an experiment run.
type Config struct {
	// Reps overrides the per-figure repetition count (paper: 20, except 6
	// for WordPress). 0 keeps the per-figure default.
	Reps int
	// Seed drives all randomness; runs with equal seeds are identical.
	Seed uint64
	// Host is the physical host topology (default: the paper's 112-CPU
	// R830).
	Host *topology.Topology
	// Quick shrinks workloads and reps for fast CI runs; shapes are
	// preserved, absolute values are not.
	Quick bool
	// TimeLimit caps each simulated run (0 = 30 simulated minutes).
	TimeLimit sim.Time
	// OutOfRangeFactor flags a whole column as out of range when its
	// bare-metal mean exceeds this multiple of the bare-metal row's median
	// (the Cassandra Large thrash case, excluded from the paper's chart).
	OutOfRangeFactor float64
	// Executor is the trial-execution strategy (nil = Pool{}): every
	// figure and sweep is a grid of independent (series, cell, repetition)
	// trials whose seeds are derived up front, so Pool{Workers: n} runs them
	// on n goroutines with bit-identical output to a serial run, and Shard
	// runs a deterministic partition of every trial grid on one of N
	// machines (see executor.go).
	Executor Executor
	// Memo, when non-nil, stores per-trial results keyed by a versioned
	// canonical encoding of the trial's full configuration and seed.
	// Repeated or overlapping runs that share a store skip every
	// already-simulated trial; a disk-backed store (OpenTrialStore) makes
	// that incremental across processes and machines.
	Memo TrialStore
	// Progress, when non-nil, is called after each completed trial with
	// (done, total) — the long-sweep progress hook. Calls are serialized by
	// the runner but may come from any worker goroutine.
	Progress func(done, total int)
}

func (c Config) withDefaults() Config {
	if c.Host == nil {
		c.Host = topology.PaperHost()
	}
	if c.TimeLimit <= 0 {
		c.TimeLimit = 30 * 60 * sim.Second
	}
	if c.OutOfRangeFactor <= 0 {
		c.OutOfRangeFactor = 4
	}
	return c
}

func (c Config) reps(figureDefault int) int {
	if c.Reps > 0 {
		return c.Reps
	}
	if c.Quick {
		return 2
	}
	return figureDefault
}

// Cell is one (series, instance) aggregate.
type Cell struct {
	Summary stats.Summary
	// Ratio is the paper's overhead ratio vs. the BM column mean.
	Ratio float64
	// OutOfRange marks thrashed cells (excluded from the paper's charts).
	OutOfRange bool
	// Breakdown is the overhead meter of the last repetition.
	Breakdown sched.Breakdown
}

// SeriesResult is one legend entry across the x-axis.
type SeriesResult struct {
	Label string
	// Spec is the canned platform identity of the series; meaningful only
	// when HasPlatform is set (a stack-only scenario series has no canned
	// identity, and the zero Spec would otherwise read as Vanilla BM).
	Spec platform.Spec
	// HasPlatform records whether Spec carries a real platform identity.
	HasPlatform bool
	Cells       []Cell
}

// Figure is a rendered experiment: series × x-labels of Cells.
type Figure struct {
	ID      string
	Title   string
	Metric  string
	XTitle  string
	XLabels []string
	Series  []SeriesResult
	// BaselineIdx is the index of the Vanilla BM series ratios are computed
	// against (-1 when no baseline applies).
	BaselineIdx int
}

// seedFor decorrelates repetitions and cells deterministically; it is
// sim.Substream, the pure derivation that makes handing every parallel
// trial its own private RNG safe.
func seedFor(base uint64, parts ...uint64) uint64 {
	return sim.Substream(base, parts...)
}

// runStack deploys a stack on host — through the worker's reuse arena when
// one is threaded in — spawns each tenant's workload and runs the machine
// to completion, returning the workload metric in seconds (the mean across
// tenants for multi-tenant stacks) with the machine's overhead breakdown.
// seedFree reports that the run drew nothing from the machine's RNG, so
// the result is the same for every seed (see simulateOrShare).
func runStack(tc *TrialContext, cfg Config, in trialInput) (r TrialResult, seedFree bool, err error) {
	d, err := tc.deploy(in)
	if err != nil {
		return TrialResult{}, false, err
	}
	// ws is either one shared workload for every tenant, or exactly one per
	// tenant slot; planScenario pads per-tenant lists to the tenant count,
	// and this boundary enforces the invariant rather than trusting it.
	ws := in.ws
	if len(ws) == 0 {
		return TrialResult{}, false, fmt.Errorf("experiments: trial has no workloads")
	}
	if len(ws) > 1 && len(ws) != len(d.Tenants) {
		return TrialResult{}, false, fmt.Errorf("experiments: %d workloads for %d tenant slot(s)",
			len(ws), len(d.Tenants))
	}
	// The context's buffer keeps the per-trial instance list allocation-free
	// at any tenant count (a fresh slice only on a nil context).
	insts := tc.instances(len(d.Tenants))
	for ti, slot := range d.Tenants {
		env := workload.EnvFor(d.M, slot.Group, slot.Affinity, slot.Cores)
		if in.memGB > 0 {
			env.MemGB = in.memGB
		}
		w := ws[0]
		if len(ws) > 1 {
			w = ws[ti]
		}
		insts[ti] = w.Spawn(env)
	}
	res := d.M.Run(cfg.TimeLimit)
	r.Breakdown = res.Breakdown
	if res.TimedOut {
		r.Metric = cfg.TimeLimit.Seconds()
	} else {
		var sum float64
		for _, inst := range insts {
			sum += inst.Metric(res)
		}
		r.Metric = sum / float64(len(insts))
	}
	return r, d.M.RNG.Draws() == 0, nil
}

// computeRatios fills per-cell overhead ratios against the BM series and
// flags thrashed columns out-of-range.
func (f *Figure) computeRatios(cfg Config) {
	if f.BaselineIdx < 0 || f.BaselineIdx >= len(f.Series) {
		return
	}
	base := f.Series[f.BaselineIdx]
	// A column is out of range (overloaded/thrashed, like Cassandra's Large
	// instance) when its baseline mean jumps discontinuously relative to
	// the next larger instance.
	oor := make([]bool, len(base.Cells))
	for ci := 0; ci+1 < len(base.Cells); ci++ {
		next := base.Cells[ci+1].Summary.Mean
		if next > 0 && base.Cells[ci].Summary.Mean > cfg.OutOfRangeFactor*next {
			oor[ci] = true
		}
	}
	for si := range f.Series {
		for ci := range f.Series[si].Cells {
			cell := &f.Series[si].Cells[ci]
			if ci < len(base.Cells) {
				cell.Ratio = stats.Ratio(cell.Summary.Mean, base.Cells[ci].Summary.Mean)
				cell.OutOfRange = oor[ci]
			}
		}
	}
}

// Cell returns the cell for a series label and x-label.
func (f *Figure) Cell(label, x string) (Cell, bool) {
	xi := -1
	for i, xl := range f.XLabels {
		if xl == x {
			xi = i
			break
		}
	}
	if xi < 0 {
		return Cell{}, false
	}
	for _, s := range f.Series {
		if s.Label == label && xi < len(s.Cells) {
			return s.Cells[xi], true
		}
	}
	return Cell{}, false
}
