package experiments

import "testing"

// TestCHRSweepBands reproduces §IV-A: the instance range in which each
// application's vanilla-container PSO stops being significant, expressed as
// a CHR band, must land near the paper's recommendations.
func TestCHRSweepBands(t *testing.T) {
	if testing.Short() {
		t.Skip("CHR sweep is a long integration test")
	}
	bands, err := RunCHRSweep(Config{Quick: true, Reps: 2, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 3 {
		t.Fatalf("apps analyzed: %d", len(bands))
	}
	byApp := map[string]CHRBand{}
	for _, b := range bands {
		byApp[b.App] = b
		if b.LowCHR >= b.HighCHR {
			t.Errorf("%s: degenerate band %v..%v", b.App, b.LowCHR, b.HighCHR)
		}
	}
	// The measured bands must overlap the paper's (generous: the paper's
	// own bands are bracketings of a coarse sweep).
	overlap := func(app string, lo, hi float64) {
		b, ok := byApp[app]
		if !ok {
			t.Fatalf("missing app %s", app)
		}
		if b.HighCHR < lo || b.LowCHR > hi {
			t.Errorf("%s band [%.2f,%.2f] does not overlap paper's [%.2f,%.2f]",
				app, b.LowCHR, b.HighCHR, lo, hi)
		}
		if b.PaperLow != lo || b.PaperHigh != hi {
			t.Errorf("%s: paper reference wrong: %v", app, b)
		}
	}
	overlap("FFmpeg", 0.07, 0.14)
	overlap("WordPress", 0.14, 0.28)
	overlap("Cassandra", 0.28, 0.57)
	// IO-intensive applications need a higher CHR than CPU-intensive ones
	// (the §IV-A conclusion).
	if byApp["Cassandra"].LowCHR < byApp["FFmpeg"].LowCHR {
		t.Error("ultra-IO apps must need at least the CPU apps' CHR")
	}
}

// TestFig6LargeThrashes reproduces the excluded Large instance: overloaded
// and far out of range of the charted columns.
func TestFig6LargeThrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("thrash regime is a long integration test")
	}
	large, err := RunRegistered("fig6-large", Config{Quick: true, Reps: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	lg, ok := large.Cell("Vanilla BM", "Large")
	if !ok {
		t.Fatal("missing cell")
	}
	rest := figure(t, 6)
	xl, _ := rest.Cell("Vanilla BM", "xLarge")
	if lg.Summary.Mean < 2.5*xl.Summary.Mean {
		t.Errorf("Large (%.1fs) should blow past xLarge (%.1fs): paper calls it 'out of range'",
			lg.Summary.Mean, xl.Summary.Mean)
	}
}
