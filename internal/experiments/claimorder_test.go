package experiments

import (
	"testing"

	"repro/internal/platform"
)

// claimRecorder is a one-worker Executor that records, for every claim of
// every grid in order, the trial it ran: the cell and inputs runTrial last
// handed the store through the worker's context.
type claimRecorder struct{ grids [][]pendingTrial }

func (r *claimRecorder) Execute(n int, run func(tc *TrialContext, i int) error, progress func(done, total int)) error {
	tc := new(TrialContext)
	claims := make([]pendingTrial, 0, n)
	for j := 0; j < n; j++ {
		if err := run(tc, j); err != nil {
			return err
		}
		claims = append(claims, tc.pending)
	}
	r.grids = append(r.grids, claims)
	return nil
}

// constStore answers every trial with Metric 1 without simulating, so the
// claim-order test plans and claims whole paper-scale grids in
// milliseconds.
type constStore struct{ *TrialMemo }

func (constStore) GetOrCompute(uint64, func() (TrialResult, error)) (TrialResult, error) {
	return TrialResult{Metric: 1}, nil
}

// cellRep is one trial's grid coordinates.
type cellRep struct{ cell, rep int }

// checkClaimOrder requires claims to cover the trials of want (keyed by
// seed) once each, to claim every cell's repetition 0 before any
// repetition ≥ 1, and to hand every repetition of a cell the same
// trialCell.
func checkClaimOrder(t *testing.T, name string, claims []pendingTrial, want map[uint64]cellRep) {
	t.Helper()
	if len(claims) != len(want) {
		t.Fatalf("%s: %d claims for %d trials", name, len(claims), len(want))
	}
	seen := make(map[uint64]bool, len(claims))
	cells := map[int]*trialCell{}
	laterRep := -1 // first claim of a repetition ≥ 1
	for j, c := range claims {
		tr, ok := want[c.in.seed]
		if !ok || seen[c.in.seed] {
			t.Fatalf("%s: claim %d ran an unknown or repeated trial (seed %#x)", name, j, c.in.seed)
		}
		seen[c.in.seed] = true
		if prev, ok := cells[tr.cell]; ok && prev != c.cell {
			t.Fatalf("%s: claim %d ran cell %d with another cell's slot", name, j, tr.cell)
		}
		cells[tr.cell] = c.cell
		switch {
		case tr.rep > 0 && laterRep < 0:
			laterRep = j
		case tr.rep == 0 && laterRep >= 0:
			t.Fatalf("%s: claim %d runs cell %d's repetition 0 after claim %d ran a later repetition", name, j, tr.cell, laterRep)
		}
	}
	if len(cells) > 1 && laterRep >= 0 && laterRep != len(cells) {
		t.Fatalf("%s: first later repetition at claim %d, want %d (one per cell before it)", name, laterRep, len(cells))
	}
}

// TestClaimOrderRepetitionZeroFirst runs RunScenario over every registered
// scenario, Sweep and RunCHRSweep through claimRecorder: each grid must
// claim every cell's repetition 0 before any later repetition, so a
// seed-free cell's result is published before a second worker could start
// its next repetition, and must still run every trial once.
func TestClaimOrderRepetitionZeroFirst(t *testing.T) {
	newCfg := func(rec *claimRecorder) Config {
		return Config{Seed: 3, Executor: rec, Memo: constStore{NewTrialMemo()}}
	}

	for _, name := range ScenarioNames() {
		sc, _ := ScenarioByName(name)
		rec := &claimRecorder{}
		cfg := newCfg(rec)
		if _, err := RunScenario(cfg, sc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := planScenario(cfg.withDefaults(), sc.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]cellRep{}
		for i, seed := range g.seeds {
			want[seed] = cellRep{i / g.reps, i % g.reps}
		}
		if len(rec.grids) != 1 {
			t.Fatalf("%s: %d grids, want 1", name, len(rec.grids))
		}
		checkClaimOrder(t, name, rec.grids[0], want)
	}

	rec := &claimRecorder{}
	cfg := newCfg(rec)
	cfg.Quick = true
	spec := sweepSpecSmall()
	spec.Reps = 3
	if _, err := Sweep(cfg, spec); err != nil {
		t.Fatal(err)
	}
	cfg = cfg.withDefaults()
	plan, err := planSweep(cfg, spec.withDefaults(cfg))
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]cellRep{}
	for ci := range plan {
		for rep := 0; rep < spec.Reps; rep++ {
			want[plan[ci].input(cfg, rep).seed] = cellRep{ci, rep}
		}
	}
	checkClaimOrder(t, "sweep", rec.grids[0], want)

	// Every CN/BM ratio is 1, below each app's threshold, so the CHR sweep
	// stops at each app's first size: one grid per app.
	rec = &claimRecorder{}
	cfg = newCfg(rec)
	cfg.Reps = 4
	if _, err := RunCHRSweep(cfg); err != nil {
		t.Fatal(err)
	}
	if len(rec.grids) != 3 {
		t.Fatalf("CHR sweep ran %d grids, want 3", len(rec.grids))
	}
	for ai, claims := range rec.grids {
		want := map[uint64]cellRep{}
		for ki, kind := range []platform.Kind{platform.CN, platform.BM} {
			for rep := 0; rep < cfg.Reps; rep++ {
				want[seedFor(cfg.withDefaults().Seed, 40, uint64(ai), 0, uint64(kind), uint64(rep))] = cellRep{ki, rep}
			}
		}
		checkClaimOrder(t, "chr", claims, want)
	}
}
