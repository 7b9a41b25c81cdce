package pinning

import (
	"testing"

	"repro/internal/experiments"
)

func TestFacadeHosts(t *testing.T) {
	if PaperHost().NumCPUs() != 112 {
		t.Fatal("paper host")
	}
	if SmallHost16().NumCPUs() != 16 {
		t.Fatal("small host")
	}
}

func TestFacadeClassifyAndAdvise(t *testing.T) {
	p := Profile{Name: "transcoder", CPUUtilization: 0.95, IOPerSecond: 2}
	if Classify(p) != CPUBound {
		t.Fatal("classify")
	}
	rec := Advise(p, PaperHost())
	if rec.Platform != CN || rec.Mode != Pinned {
		t.Fatalf("advise: %v %v", rec.Mode, rec.Platform)
	}
	if !RecommendedCHR(UltraIOBound).Contains(0.4) {
		t.Fatal("chr band")
	}
	if CHR(16, PaperHost()) <= 0 {
		t.Fatal("chr")
	}
}

func TestFacadeParseCPUList(t *testing.T) {
	set, err := ParseCPUList("0-2,5")
	if err != nil || set.Count() != 4 {
		t.Fatalf("parse: %v %v", set, err)
	}
	if _, err := ParseCPUList("bogus"); err == nil {
		t.Fatal("bad list must fail")
	}
}

func TestFacadeRunFigure(t *testing.T) {
	f, err := RunFigure(8, ExperimentConfig{Quick: true, Reps: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 || len(f.XLabels) != 2 {
		t.Fatalf("figure shape: %d series × %d labels", len(f.Series), len(f.XLabels))
	}
	if _, err := RunFigure(99, ExperimentConfig{}); err == nil {
		t.Fatal("bad figure number must fail")
	}
}

func TestFacadeRunSweep(t *testing.T) {
	memo := NewTrialMemo()
	cfg := ExperimentConfig{Quick: true, Seed: 5, Executor: PoolExecutor{Workers: 4}, Memo: memo}
	spec := SweepSpec{
		Platforms: []PlatformSpec{{Kind: CN, Mode: Pinned}, {Kind: BM, Mode: Vanilla}},
		Cores:     []int{4},
		Workloads: []string{"ffmpeg"},
		Reps:      2,
	}
	res, err := RunSweep(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells: %d", len(res.Cells))
	}
	if memo.Stats().Misses != 4 {
		t.Fatalf("memo misses: %d, want one per trial", memo.Stats().Misses)
	}
	if _, err := RunSweep(spec, cfg); err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Misses != 4 {
		t.Fatal("repeat sweep must be served from the memo")
	}
}

func TestFacadeOverheadModel(t *testing.T) {
	var samples []OverheadSample
	for _, chr := range []float64{0.05, 0.1, 0.2, 0.4} {
		samples = append(samples, OverheadSample{
			Platform: VM, Mode: Pinned, Class: CPUBound, CHR: chr, Ratio: 2.0,
		})
	}
	m, err := FitSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Predict(VM, Pinned, CPUBound, 0.14)
	if err != nil || r < 1.9 || r > 2.1 {
		t.Fatalf("predict: %v %v", r, err)
	}
	if Isolation(VMCN) <= Isolation(CN) {
		t.Fatal("isolation ordering")
	}
}

func TestFacadeRunProfile(t *testing.T) {
	col, secs, err := RunProfile(ProfileSpec{
		App: "ffmpeg", Platform: "cn", Mode: "pinned", Size: "Large",
	}, ExperimentConfig{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 || col.Events() == 0 {
		t.Fatalf("profile: %vs, %d events", secs, col.Events())
	}
}

func TestConstantsMatchInternal(t *testing.T) {
	// The facade constants must stay aligned with the internal enums.
	if BM.String() != "BM" || VMCN.String() != "VMCN" {
		t.Fatal("platform kinds")
	}
	if Vanilla.String() != "Vanilla" || Pinned.String() != "Pinned" {
		t.Fatal("modes")
	}
	series := experiments.PlatformTable
	if len(series) != 4 {
		t.Fatal("Table III")
	}
}
