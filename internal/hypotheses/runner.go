package hypotheses

// The generic hypothesis runner. One hypothesis run is K scenario runs —
// each with Reps=1 and a base seed derived deterministically from the
// harness seed and the seed index alone (not the hypothesis name), so two
// hypotheses that reference the same scenario share every trial through a
// common TrialStore, and a warm store replays the entire harness with zero
// simulations. The seed count is adaptive: stats.RunUntilTight keeps
// adding seeds until the effect interval is tight or the policy cap is
// hit, and because the stop decision is a pure function of the observed
// (deterministic) values, the count — and the rendered findings — are
// identical at any worker count and any store warmth.

import (
	"fmt"
	"math"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
)

// hypSeedTag decorrelates hypothesis seed streams from every other use of
// the base seed ("HYPS").
const hypSeedTag = 0x48595053

// Status is a finding's verdict.
type Status string

const (
	// Confirmed: the effect interval lies strictly on the claimed side of
	// the null boundary.
	Confirmed Status = "Confirmed"
	// Refuted: the interval lies strictly on the opposite side.
	Refuted Status = "Refuted"
	// Inconclusive: the interval straddles the boundary (or is unusable).
	Inconclusive Status = "Inconclusive"
)

// Config controls a hypothesis run.
type Config struct {
	// Seed is the harness base seed; per-seed-index scenario seeds derive
	// from it.
	Seed uint64
	// Quick applies the scenarios' quick workload scaling (the CI profile).
	Quick bool
	// Workers is the per-scenario trial fan-out: the size of the
	// experiments.Pool each scenario run executes on.
	Workers int
	// Store, when non-nil, memoizes trials across seeds, hypotheses and —
	// when disk-backed — processes.
	Store experiments.TrialStore
	// Resamples is the bootstrap resample count (default 1000).
	Resamples int
	// Progress, when non-nil, is called after each completed seed run with
	// the hypothesis name and the seeds drawn so far.
	Progress func(name string, seeds int)
}

func (c Config) withDefaults() Config {
	if c.Resamples <= 0 {
		c.Resamples = 1000
	}
	return c
}

// Finding is one evaluated hypothesis.
type Finding struct {
	// Hypothesis carries the claim the finding answers.
	Hypothesis Hypothesis
	// Status is the verdict.
	Status Status
	// Effect is the mean per-seed effect.
	Effect float64
	// CI is the BCa bootstrap interval of the mean effect.
	CI stats.Interval
	// Seeds is how many seeds the adaptive policy drew.
	Seeds int
	// Values are the per-seed effects, in seed-index order.
	Values []float64
}

// seedAt derives the scenario base seed for seed index i. The derivation
// deliberately excludes the hypothesis identity: hypotheses sharing a
// scenario draw identical trial grids and therefore share store records.
func seedAt(base uint64, i int) uint64 {
	return sim.Substream(base, hypSeedTag, uint64(i))
}

// bootSeed seeds the bootstrap RNG per hypothesis: resampling noise is
// decorrelated between hypotheses but identical across reruns.
func bootSeed(name string) int64 {
	h := uint64(1469598103934665603) // FNV-1a offset
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(h & math.MaxInt64)
}

// Run evaluates one hypothesis: the referenced scenario runs across
// adaptively-many seeds, the predicate reduces each run to an effect, and
// the effect sample's BCa interval decides the status.
func Run(h Hypothesis, cfg Config) (Finding, error) {
	if err := h.Validate(); err != nil {
		return Finding{}, err
	}
	cfg = cfg.withDefaults()
	sc, ok := experiments.ScenarioByName(h.Scenario)
	if !ok {
		return Finding{}, fmt.Errorf("hypotheses: %s: %w", h.Name, experiments.UnknownScenarioError(h.Scenario))
	}
	pol := h.Seeds.withDefaults()

	sample := func(i int) (float64, error) {
		ecfg := experiments.Config{
			// Reps=1: each seed index is one independent repetition of the
			// whole grid; the seed axis replaces the rep axis.
			Reps:     1,
			Seed:     seedAt(cfg.Seed, i),
			Quick:    cfg.Quick,
			Executor: experiments.Pool{Workers: cfg.Workers},
			Memo:     cfg.Store,
		}
		f, err := experiments.RunScenario(ecfg, sc)
		if err != nil {
			return 0, fmt.Errorf("hypotheses: %s seed %d: %w", h.Name, i, err)
		}
		v, err := h.Predicate.Effect(f)
		if err != nil {
			return 0, fmt.Errorf("hypotheses: %s seed %d: %w", h.Name, i, err)
		}
		if cfg.Progress != nil {
			cfg.Progress(h.Name, i+1)
		}
		return v, nil
	}

	values, _, err := stats.RunUntilTight(stats.TightOpts{
		Min:       pol.Min,
		Max:       pol.Max,
		RelTol:    pol.RelTol,
		Resamples: cfg.Resamples,
		Seed:      bootSeed(h.Name),
	}, sample)
	if err != nil {
		return Finding{}, err
	}

	ci := stats.BootstrapCIBCa(values, 0.95, cfg.Resamples, bootSeed(h.Name))
	f := Finding{
		Hypothesis: h,
		Effect:     stats.Summarize(values).Mean,
		CI:         ci,
		Seeds:      len(values),
		Values:     values,
	}
	f.Status = verdict(h.Predicate, ci)
	return f, nil
}

// verdict applies the decision rule: Confirmed when the interval lies
// strictly on the claimed side of the null, Refuted when strictly on the
// opposite side, Inconclusive when it straddles the boundary or is NaN.
func verdict(p Predicate, ci stats.Interval) Status {
	if math.IsNaN(ci.Lo) || math.IsNaN(ci.Hi) {
		return Inconclusive
	}
	claimed, opposite := ci.Above(p.Null), ci.Below(p.Null)
	if p.Direction == Below {
		claimed, opposite = opposite, claimed
	}
	switch {
	case claimed:
		return Confirmed
	case opposite:
		return Refuted
	default:
		return Inconclusive
	}
}

// RunAll evaluates every registered hypothesis in sorted-name order.
func RunAll(cfg Config) ([]Finding, error) {
	hs := All()
	out := make([]Finding, 0, len(hs))
	for _, h := range hs {
		f, err := Run(h, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
