package experiments

import (
	"math"
	"reflect"
	"testing"
)

// simulateDirect runs trial i of the grid straight through runStack: no
// store and no seed-free slot, so every call simulates.
func simulateDirect(t *testing.T, tc *TrialContext, cfg Config, g *scenarioGrid, i int) (TrialResult, bool) {
	t.Helper()
	r, seedFree, err := runStack(tc, cfg, g.input(i))
	if err != nil {
		t.Fatalf("trial %d: %v", i, err)
	}
	return r, seedFree
}

// seedFreeCells classifies every (series, cell) of sc by simulating its
// first repetition directly: true when that run drew no random number.
func seedFreeCells(t *testing.T, cfg Config, sc Scenario) []bool {
	t.Helper()
	cfg, sc = cfg.withDefaults(), sc.withDefaults()
	g, err := planScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	tc := new(TrialContext)
	free := make([]bool, len(g.wlists))
	for c := range free {
		_, free[c] = simulateDirect(t, tc, cfg, g, c*g.reps)
	}
	return free
}

// simulatedTrials is how many trials a serial run of sc simulates when
// each seed-free cell simulates once and shares its result with its other
// repetitions.
func simulatedTrials(t *testing.T, cfg Config, sc Scenario) (simulated, shared uint64) {
	t.Helper()
	reps := uint64(cfg.withDefaults().reps(sc.withDefaults().Reps))
	for _, free := range seedFreeCells(t, cfg, sc) {
		if free {
			simulated++
			shared += reps - 1
		} else {
			simulated += reps
		}
	}
	return simulated, shared
}

// TestSeedFreeRepetitionsAgree is the oracle behind seed-free sharing.
// For every registered scenario, every repetition simulates directly,
// with sharing out of the path. Whenever repetition 0 drew no random
// number, every repetition of the cell must draw none either and return
// a bit-identical Metric and Breakdown.
func TestSeedFreeRepetitionsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every registered scenario at four repetitions")
	}
	cfg := Config{Seed: 42, Quick: true, Reps: 4}.withDefaults()
	var cells, free int
	for _, sc := range Scenarios() {
		sc = sc.withDefaults()
		g, err := planScenario(cfg, sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		tc := new(TrialContext)
		for c := range g.wlists {
			cells++
			first := c * g.reps
			want, seedFree := simulateDirect(t, tc, cfg, g, first)
			if !seedFree {
				continue
			}
			free++
			for i := first + 1; i < first+g.reps; i++ {
				got, gotFree := simulateDirect(t, tc, cfg, g, i)
				if !gotFree {
					t.Errorf("%s cell %d: repetition 0 drew nothing but repetition %d drew", sc.Name, c, i-first)
				}
				if math.Float64bits(got.Metric) != math.Float64bits(want.Metric) || got.Breakdown != want.Breakdown {
					t.Errorf("%s cell %d: seed-free repetition %d diverged\n got %+v\nwant %+v", sc.Name, c, i-first, got, want)
				}
			}
		}
	}
	if free == 0 {
		t.Fatal("no registered cell is seed-free: the oracle checked nothing")
	}
	t.Logf("%d of %d cells seed-free", free, cells)
}

// TestSeedFreeCellsSimulateOnce: a serial run simulates each seed-free
// cell once and every other cell once per repetition, and the skipped
// repetitions are exactly the shared ones. Every trial deploys once when
// it simulates and not at all when it shares, so the deployment counters
// count simulations. The counters are process-global, and no test in this
// package runs in parallel, so the deltas are this test's alone.
func TestSeedFreeCellsSimulateOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick figure")
	}
	sc, ok := ScenarioByName("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	cfg := Config{Seed: 7, Quick: true, Reps: 3, Executor: Pool{Workers: 1}}
	wantSim, wantShared := simulatedTrials(t, cfg, sc)
	if wantShared == 0 {
		t.Fatal("quick fig3 has no seed-free cell: the test checks nothing")
	}
	b0, r0 := DeployStats()
	s0 := SharedRepetitions()
	if _, err := RunScenario(cfg, sc); err != nil {
		t.Fatal(err)
	}
	b1, r1 := DeployStats()
	if sim, shared := b1+r1-b0-r0, SharedRepetitions()-s0; sim != wantSim || shared != wantShared {
		t.Fatalf("simulated %d, shared %d; want %d simulated and %d shared", sim, shared, wantSim, wantShared)
	}
}

// TestSeedFreeSharingIgnoresScheduling: with many repetitions per cell,
// several workers race to publish and read one cell's seed-free slot, and
// which repetition simulates first differs run to run. The figure must
// not: it equals the serial run's at every worker count.
func TestSeedFreeSharingIgnoresScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick figure three times")
	}
	cfg := Config{Seed: 11, Quick: true, Reps: 6, Executor: Pool{Workers: 1}}
	want, err := RunFigure(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Executor = Pool{Workers: workers}
		got, err := RunFigure(3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: figure differs from the serial run\n got %+v\nwant %+v", workers, got, want)
		}
	}
}
