package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/platform"
)

func sweepSpecSmall() SweepSpec {
	return SweepSpec{
		Platforms: []platform.Spec{
			{Kind: platform.BM, Mode: platform.Vanilla},
			{Kind: platform.CN, Mode: platform.Vanilla},
			{Kind: platform.CN, Mode: platform.Pinned},
		},
		Cores:     []int{2, 16},
		Workloads: []string{"ffmpeg"},
		Reps:      2,
	}
}

func TestSweepGridShapeAndOrder(t *testing.T) {
	res, err := Sweep(Config{Quick: true, Seed: 5}, sweepSpecSmall())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3*2 {
		t.Fatalf("cells: %d, want platforms × cores = 6", len(res.Cells))
	}
	// Deterministic platforms-outermost order.
	if res.Cells[0].Platform != "Vanilla BM" || res.Cells[0].Cores != 2 {
		t.Fatalf("first cell %s/%d", res.Cells[0].Platform, res.Cells[0].Cores)
	}
	if res.Cells[5].Platform != "Pinned CN" || res.Cells[5].Cores != 16 {
		t.Fatalf("last cell %s/%d", res.Cells[5].Platform, res.Cells[5].Cores)
	}
	for _, c := range res.Cells {
		if c.MemGB != 4*c.Cores {
			t.Errorf("%s/%d: default memory %d, want 4 GB/core", c.Platform, c.Cores, c.MemGB)
		}
		if c.CHR != float64(c.Cores)/112 {
			t.Errorf("%s/%d: CHR %.4f", c.Platform, c.Cores, c.CHR)
		}
		if c.Summary.N != 2 || c.Summary.Mean <= 0 {
			t.Errorf("%s/%d: summary %+v", c.Platform, c.Cores, c.Summary)
		}
	}
}

func TestSweepRatiosAgainstBM(t *testing.T) {
	res, err := Sweep(Config{Quick: true, Seed: 5}, sweepSpecSmall())
	if err != nil {
		t.Fatal(err)
	}
	bm, ok := res.Cell("Vanilla BM", "ffmpeg", 2, 0)
	if !ok {
		t.Fatal("missing BM cell")
	}
	if bm.Ratio != 1 {
		t.Fatalf("BM ratio vs itself = %.3f", bm.Ratio)
	}
	cn, ok := res.Cell("Vanilla CN", "ffmpeg", 2, 0)
	if !ok {
		t.Fatal("missing CN cell")
	}
	if cn.Ratio <= 1 {
		t.Fatalf("small vanilla CN ratio %.3f, want > 1 (PSO)", cn.Ratio)
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	spec := sweepSpecSmall()
	spec.Workloads = []string{"ffmpeg", "wordpress"}
	serial, err := Sweep(Config{Quick: true, Seed: 7, Executor: Pool{Workers: 1}}, spec)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(Config{Quick: true, Seed: 7, Executor: Pool{Workers: 8}}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("Workers:8 sweep differs from Workers:1")
	}

	// A warm rerun aggregates every cell from store hits alone.
	memo := NewTrialMemo()
	warmCfg := Config{Quick: true, Seed: 7, Memo: memo, Executor: Pool{Workers: 8}}
	if _, err := Sweep(warmCfg, spec); err != nil {
		t.Fatal(err)
	}
	cold := memo.Stats().Misses
	warm, err := Sweep(warmCfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Misses != cold {
		t.Fatalf("warm rerun simulated %d trials, want 0", memo.Stats().Misses-cold)
	}
	if !reflect.DeepEqual(serial, warm) {
		t.Fatal("warm-memo rerun differs from Workers:1")
	}

	// Two shard runs persist disjoint halves of the claim order. A shard
	// aggregates a cell only when it ran every repetition of it, and then
	// exactly as the serial run did; a cell it ran part of stays
	// unaggregated. The merge run aggregates every cell from the merged
	// stores.
	dirs := []string{t.TempDir(), t.TempDir()}
	for idx, dir := range dirs {
		st, err := OpenTrialStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		part, err := Sweep(Config{Quick: true, Seed: 7, Memo: st,
			Executor: Shard{Index: idx, Count: len(dirs), Inner: Pool{Workers: 2}}}, spec)
		if err != nil {
			t.Fatalf("shard %d: %v", idx, err)
		}
		for ci, c := range part.Cells {
			if c.Summary.N == 0 {
				continue
			}
			want := serial.Cells[ci]
			if c.Summary != want.Summary || c.BootCI != want.BootCI || c.Breakdown != want.Breakdown {
				t.Fatalf("shard %d aggregated %s/%s/%d unlike the serial run", idx, c.Platform, c.Workload, c.Cores)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	merged := NewTrialMemo()
	if err := MergeTrialStores(merged, dirs...); err != nil {
		t.Fatal(err)
	}
	mergedRes, err := Sweep(Config{Quick: true, Seed: 7, Memo: merged, Executor: Pool{Workers: 8}}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Stats().Misses != 0 {
		t.Fatalf("merge run simulated %d trials, want 0", merged.Stats().Misses)
	}
	if !reflect.DeepEqual(serial, mergedRes) {
		t.Fatal("2-shard run plus merge differs from Workers:1")
	}
}

// TestSweepMemoSkipsOverlap is the cache contract: a repeated sweep runs
// zero new simulations, and an overlapping sweep re-simulates only the
// cells outside the overlap.
func TestSweepMemoSkipsOverlap(t *testing.T) {
	memo := NewTrialMemo()
	cfg := Config{Quick: true, Seed: 5, Memo: memo, Executor: Pool{Workers: 2}}
	spec := sweepSpecSmall()

	first, err := Sweep(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	cold := memo.Stats().Misses
	if cold != 3*2*2 {
		t.Fatalf("cold sweep simulated %d trials, want every one (12)", cold)
	}

	// Identical sweep: zero new simulations.
	second, err := Sweep(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Misses != cold {
		t.Fatalf("repeat sweep simulated %d new trials, want 0", memo.Stats().Misses-cold)
	}
	if !reflect.DeepEqual(first.Cells, second.Cells) {
		t.Fatal("memoized repeat must reproduce the sweep exactly")
	}

	// Overlapping sweep (one extra core point): only the new column runs.
	bigger := spec
	bigger.Cores = []int{2, 8, 16}
	if _, err := Sweep(cfg, bigger); err != nil {
		t.Fatal(err)
	}
	newTrials := memo.Stats().Misses - cold
	if newTrials != 3*1*2 {
		t.Fatalf("overlapping sweep simulated %d new trials, want only the 6 new-column ones", newTrials)
	}
}

// TestSweepAliasesShareCells pins the canonicalization contract: an alias
// ("web") and its canonical name ("wordpress") describe the same cell, draw
// the same seeds and share memo entries.
func TestSweepAliasesShareCells(t *testing.T) {
	memo := NewTrialMemo()
	cfg := Config{Quick: true, Seed: 11, Memo: memo}
	spec := SweepSpec{
		Platforms: []platform.Spec{{Kind: platform.CN, Mode: platform.Pinned}},
		Cores:     []int{4},
		Workloads: []string{"wordpress"},
		Reps:      2,
	}
	canonical, err := Sweep(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	cold := memo.Stats().Misses
	spec.Workloads = []string{"web"}
	aliased, err := Sweep(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Misses != cold {
		t.Fatalf("aliased sweep simulated %d new trials, want 0 (same cells)", memo.Stats().Misses-cold)
	}
	if !reflect.DeepEqual(canonical.Cells, aliased.Cells) {
		t.Fatal("alias and canonical name must produce identical cells")
	}
	if _, ok := aliased.Cell("Pinned CN", "web", 4, 0); !ok {
		t.Fatal("Cell lookup must accept aliases")
	}
}

func TestSweepDefaultsAndValidation(t *testing.T) {
	res, err := Sweep(Config{Quick: true, Reps: 1, Seed: 3},
		SweepSpec{Cores: []int{4}, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 7 { // standard series default
		t.Fatalf("default platforms: %d cells, want 7", len(res.Cells))
	}
	if _, err := Sweep(Config{Quick: true}, SweepSpec{Workloads: []string{"nope"}, Cores: []int{2}}); err == nil {
		t.Fatal("unknown workload must fail")
	}
	if _, err := Sweep(Config{Quick: true}, SweepSpec{Cores: []int{-1}}); err == nil {
		t.Fatal("non-positive cores must fail")
	}
}

func TestSweepProgressAndRenderers(t *testing.T) {
	var final int
	cfg := Config{Quick: true, Seed: 5, Progress: func(done, total int) { final = done }}
	res, err := Sweep(cfg, sweepSpecSmall())
	if err != nil {
		t.Fatal(err)
	}
	if final != 3*2*2 {
		t.Fatalf("final progress %d, want 12 trials", final)
	}

	var csv, txt, js bytes.Buffer
	res.RenderCSV(&csv)
	if lines := strings.Count(csv.String(), "\n"); lines != 1+6 {
		t.Fatalf("csv rows: %d", lines)
	}
	if !strings.HasPrefix(csv.String(), "platform,workload,cores,mem_gb,chr,") {
		t.Fatalf("csv header: %q", csv.String())
	}
	res.RenderText(&txt)
	if !strings.Contains(txt.String(), "Pinned CN") || !strings.Contains(txt.String(), "16c/64GB") {
		t.Fatalf("text render:\n%s", txt.String())
	}
	if err := res.RenderJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back SweepResult
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back.Cells) != len(res.Cells) || back.Cells[0].Platform != res.Cells[0].Platform {
		t.Fatal("JSON round-trip lost cells")
	}
}
