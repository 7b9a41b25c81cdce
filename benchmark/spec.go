package main

// The fixed content of the four workloads. Everything here is a constant so
// that runs of two commits do the same work; only the measuring window
// (--seconds) and the seed come from the command line, and pass counts
// follow from the window.

import (
	"repro/internal/experiments"
	"repro/internal/platform"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 18
	// setupReps is how many times each run repeats its set-up; setup_s is
	// the median.
	setupReps = 3
	// openLoopShare is serve-mix's split of the window: the open loop gets
	// this share, the closed loop the rest.
	openLoopShare = 0.5
	// warmRate and coldRate are serve-mix's open-loop arrival rates, per
	// second, on connections A and B.
	warmRate = 8000.0
	coldRate = 40.0
	// goldenSeed is the seed the committed golden and paperDigest were
	// rendered at.
	goldenSeed = 42
	// goldenPath is the committed quick-figure golden, relative to the
	// repository root.
	goldenPath = "internal/experiments/testdata/fig_all_quick.golden"
	// paperDigest is the sha256 of fig3..fig8 at paper scale and seed 42,
	// rendered as text (the bytes `pinsim -fig all` prints).
	paperDigest = "bd348faa07a46fd735ae228e74a4df8b762d6545d8927e1e44a8bea0857d054f"
)

// figureNames are the paper's figures, in `pinsim -fig all` order.
var figureNames = []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8"}

// spec is one size of the four workloads. fullSpec is the benchmark; the
// smoke test runs a tiny one through the same code.
type spec struct {
	// paper-cold: these figures at Quick/Reps (Quick false, Reps 0 = the
	// paper's repetitions).
	paperFigures []string
	paperQuick   bool
	paperReps    int
	// digest, when set, is what the paper figures must hash to at seed 42.
	digest string
	// sweep-cold, and the store replay-warm reads: this grid at quick scale.
	sweep experiments.SweepSpec
	// replay-warm also replays these figures at quick scale.
	replayFigures []string
	// serve-mix pre-warms every name at serveSeeds seeds; cold requests ask
	// one cell of a coldNames scenario at a fresh seed.
	serveNames []string
	serveSeeds int
	coldNames  []string
	// golden runs the quick-figure golden check in every set-up.
	golden bool
	// setupReps is the number of set-ups per run.
	setupReps int
}

func fullSpec() spec {
	return spec{
		paperFigures: figureNames,
		digest:       paperDigest,
		sweep: experiments.SweepSpec{
			// Platforms and Cores left empty: the seven standard series
			// and the six Table II sizes.
			Workloads: []string{"ffmpeg", "wordpress", "microservice"},
			Reps:      50,
		},
		replayFigures: figureNames,
		serveNames:    []string{"fig3", "fig4", "fig5", "fig6", "fig6-large", "fig7", "fig8", "net"},
		serveSeeds:    4,
		coldNames:     []string{"fig3", "fig5", "net"},
		golden:        true,
		setupReps:     setupReps,
	}
}

// sweepTrials is the number of trials one pass of the sweep grid runs.
func (sp spec) sweepTrials() int {
	series := len(sp.sweep.Platforms)
	if series == 0 {
		series = len(platform.StandardSeries())
	}
	cores := len(sp.sweep.Cores)
	if cores == 0 {
		cores = len(experiments.InstanceTypes)
	}
	mem := len(sp.sweep.MemGB)
	if mem == 0 {
		mem = 1
	}
	return series * cores * len(sp.sweep.Workloads) * mem * sp.sweep.Reps
}
