package experiments

// The paper's figures are data, not code: each is a Scenario registered in
// builtin.go and executed by the generic scenario engine (scenario.go),
// reached through RunFigure or RunRegistered; there is no per-figure
// execution logic left here.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// transcodeFor scales the FFmpeg workload for quick runs.
func transcodeFor(cfg Config, segments int) workload.Transcode {
	w := workload.DefaultTranscode()
	w.Segments = segments
	if cfg.Quick {
		w.TotalWork /= 8
		w.PerProcessOverhead /= 8
	}
	return w
}

// RunFigure dispatches by figure number 3..8 through the scenario registry.
func RunFigure(n int, cfg Config) (Figure, error) {
	if n < 3 || n > 8 {
		return Figure{}, fmt.Errorf("experiments: no figure %d (have 3..8)", n)
	}
	return RunRegistered(fmt.Sprintf("fig%d", n), cfg)
}

// CHRBand is the §IV-A result for one application class: the CHR range in
// which the container's PSO stops being significant.
type CHRBand struct {
	App       string
	LowCHR    float64
	HighCHR   float64
	LowName   string
	HighName  string
	PaperLow  float64
	PaperHigh float64
}

// RunCHRSweep reproduces the §IV-A analysis: sweep instance sizes, find the
// first size where the vanilla container's overhead ratio over bare metal
// drops below the per-class significance threshold, and report the
// bracketing CHR band.
func RunCHRSweep(cfg Config) ([]CHRBand, error) {
	cfg = cfg.withDefaults()
	reps := cfg.reps(5)
	type app struct {
		name      string
		mk        func(it InstanceType) workload.Workload
		last      string
		threshold float64
		pLow      float64
		pHigh     float64
	}
	apps := []app{
		{"FFmpeg", func(InstanceType) workload.Workload { return transcodeFor(cfg, 1) }, "4xLarge", 1.10, 0.07, 0.14},
		{"WordPress", func(InstanceType) workload.Workload {
			w := workload.DefaultWeb()
			if cfg.Quick {
				w.Requests /= 4
			}
			return w
		}, "16xLarge", 1.25, 0.14, 0.28},
		{"Cassandra", func(InstanceType) workload.Workload {
			return workload.DefaultNoSQL()
		}, "16xLarge", 1.25, 0.28, 0.57},
	}
	hostCPUs := float64(cfg.Host.NumCPUs())
	var out []CHRBand
	for ai, a := range apps {
		first := "Large"
		if a.name != "FFmpeg" {
			first = "xLarge"
		}
		instances := Instances(first, a.last)
		band := CHRBand{App: a.name, PaperLow: a.pLow, PaperHigh: a.pHigh}
		prev := instances[0]
		found := false
		for ii, it := range instances {
			// The outer size sweep is sequential by nature (it stops at the
			// first size whose CN/BM ratio is insignificant), but each step's
			// kinds × reps block is an independent grid and fans out.
			kinds := []platform.Kind{platform.CN, platform.BM}
			results := make([]TrialResult, len(kinds)*reps)
			cells := make([]trialCell, len(kinds)) // this step only
			err := forEachCellTrial(cfg, len(kinds), reps, func(tc *TrialContext, ki, rep int) error {
				kind := kinds[ki]
				seed := seedFor(cfg.Seed, 40, uint64(ai), uint64(ii), uint64(kind), uint64(rep))
				spec := platform.Spec{Kind: kind, Mode: platform.Vanilla, Cores: it.Cores}
				r, err := runTrial(tc, cfg, &cells[ki], trialInput{host: cfg.Host, stack: spec.Stack(),
					size: it.Cores, ws: []workload.Workload{a.mk(it)}, memGB: it.MemGB, seed: seed})
				if err != nil {
					return err
				}
				results[ki*reps+rep] = r
				return nil
			})
			if err != nil {
				return nil, err
			}
			means := map[platform.Kind]float64{}
			for ki, kind := range kinds {
				var vals []float64
				for rep := 0; rep < reps; rep++ {
					vals = append(vals, results[ki*reps+rep].Metric)
				}
				means[kind] = stats.Summarize(vals).Mean
			}
			cnOverBM := means[platform.CN] / means[platform.BM]
			if cnOverBM < a.threshold {
				band.LowCHR = float64(prev.Cores) / hostCPUs
				band.HighCHR = float64(it.Cores) / hostCPUs
				band.LowName = prev.Name
				band.HighName = it.Name
				found = true
				break
			}
			prev = it
		}
		if !found {
			band.LowCHR = float64(prev.Cores) / hostCPUs
			band.HighCHR = 1
			band.LowName = prev.Name
			band.HighName = "host"
		}
		out = append(out, band)
	}
	return out, nil
}

// Decomposition is the §IV PTO/PSO split for one series of a figure.
type Decomposition struct {
	Label string
	// PTO is the platform-type overhead: the ratio that remains at the
	// largest instance (size-invariant component).
	PTO float64
	// PSO per x-label: the size-dependent component (ratio - PTO).
	PSO []float64
}

// Decompose splits each series' overhead ratios into PTO and PSO.
func Decompose(fig Figure) []Decomposition {
	var out []Decomposition
	for si, s := range fig.Series {
		if si == fig.BaselineIdx || len(s.Cells) == 0 {
			continue
		}
		ratios := make([]float64, len(s.Cells))
		for i, c := range s.Cells {
			ratios[i] = c.Ratio
		}
		pto, pso := core.Split(ratios)
		out = append(out, Decomposition{Label: s.Label, PTO: pto, PSO: pso})
	}
	return out
}
