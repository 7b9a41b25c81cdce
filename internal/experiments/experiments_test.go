package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// Shape tests: each figure is regenerated once (Quick mode, 2 reps, fixed
// seed) and multiple subtests assert the paper's qualitative claims against
// it. Tolerances are deliberate: the reproduction targets orderings, ratios
// and crossovers, not absolute seconds.

var (
	onceFig  [9]sync.Once
	figCache [9]Figure
	figErr   [9]error
)

func figure(t *testing.T, n int) Figure {
	t.Helper()
	onceFig[n].Do(func() {
		figCache[n], figErr[n] = RunFigure(n, Config{Quick: true, Reps: 2, Seed: 1234})
	})
	if figErr[n] != nil {
		t.Fatalf("figure %d: %v", n, figErr[n])
	}
	return figCache[n]
}

func ratio(t *testing.T, f Figure, series, x string) float64 {
	t.Helper()
	c, ok := f.Cell(series, x)
	if !ok {
		t.Fatalf("missing cell %s/%s", series, x)
	}
	return c.Ratio
}

func mean(t *testing.T, f Figure, series, x string) float64 {
	t.Helper()
	c, ok := f.Cell(series, x)
	if !ok {
		t.Fatalf("missing cell %s/%s", series, x)
	}
	return c.Summary.Mean
}

// ---- Fig 3: FFmpeg -----------------------------------------------------

func TestFig3VMTaxFlatAndPinningUseless(t *testing.T) {
	f := figure(t, 3)
	for _, x := range f.XLabels {
		rv := ratio(t, f, "Vanilla VM", x)
		rp := ratio(t, f, "Pinned VM", x)
		if rv < 1.6 || rv > 2.6 {
			t.Errorf("%s: VM ratio %.2f outside the ≈2× PTO band", x, rv)
		}
		// Paper §III-B1(ii): pinning does not mitigate VM overhead for
		// FFmpeg.
		if rv-rp > 0.5 {
			t.Errorf("%s: pinning 'helped' the VM too much (%.2f vs %.2f)", x, rv, rp)
		}
	}
}

func TestFig3VMCNWorstAtSmallConvergesToVM(t *testing.T) {
	f := figure(t, 3)
	large := ratio(t, f, "Vanilla VMCN", "Large")
	if large < 2.8 {
		t.Errorf("VMCN at Large = %.2f; paper sees up to ≈4×", large)
	}
	x4 := ratio(t, f, "Vanilla VMCN", "4xLarge")
	vm4 := ratio(t, f, "Vanilla VM", "4xLarge")
	if x4 > vm4*1.2 {
		t.Errorf("VMCN must converge to VM at 4xLarge: %.2f vs %.2f", x4, vm4)
	}
	if large <= x4 {
		t.Errorf("VMCN overhead must shrink with size: %.2f → %.2f", large, x4)
	}
}

func TestFig3VanillaCNShrinksWithSize(t *testing.T) {
	f := figure(t, 3)
	large := ratio(t, f, "Vanilla CN", "Large")
	x4 := ratio(t, f, "Vanilla CN", "4xLarge")
	if large < 1.08 {
		t.Errorf("small vanilla CN must show PSO: %.2f", large)
	}
	if x4 > 1.12 {
		t.Errorf("vanilla CN PSO must vanish by 4xLarge: %.2f", x4)
	}
	if large <= x4 {
		t.Errorf("PSO must shrink: %.2f → %.2f", large, x4)
	}
}

func TestFig3PinnedCNMinimalOverhead(t *testing.T) {
	f := figure(t, 3)
	for _, x := range f.XLabels {
		r := ratio(t, f, "Pinned CN", x)
		if r < 0.9 || r > 1.15 {
			t.Errorf("%s: pinned CN ratio %.2f; paper: minimal overhead", x, r)
		}
	}
	// BP2: pinned CN ≤ vanilla CN at the small end.
	if ratio(t, f, "Pinned CN", "Large") > ratio(t, f, "Vanilla CN", "Large") {
		t.Error("pinning must not hurt a small CPU-bound container")
	}
}

func TestFig3TimesDecreaseWithCores(t *testing.T) {
	f := figure(t, 3)
	for _, s := range []string{"Vanilla BM", "Pinned VM", "Pinned CN"} {
		prev := mean(t, f, s, "Large")
		for _, x := range []string{"xLarge", "2xLarge", "4xLarge"} {
			cur := mean(t, f, s, x)
			if cur >= prev {
				t.Errorf("%s: no speedup %s (%.2f → %.2f)", s, x, prev, cur)
			}
			prev = cur
		}
	}
}

// ---- Fig 4: MPI --------------------------------------------------------

func TestFig4ContainersWorstForMPI(t *testing.T) {
	f := figure(t, 4)
	for _, x := range f.XLabels {
		cn := ratio(t, f, "Pinned CN", x)
		vmcn := ratio(t, f, "Pinned VMCN", x)
		vm := ratio(t, f, "Pinned VM", x)
		// Paper §III-B2(i): CN exceeds VMCN exceeds VM.
		if cn <= vmcn*0.98 {
			t.Errorf("%s: CN (%.2f) must exceed VMCN (%.2f)", x, cn, vmcn)
		}
		if vmcn <= vm*0.98 {
			t.Errorf("%s: VMCN (%.2f) must exceed VM (%.2f)", x, vmcn, vm)
		}
	}
}

func TestFig4PinningDoesNotFixContainers(t *testing.T) {
	f := figure(t, 4)
	for _, x := range f.XLabels {
		if r := ratio(t, f, "Pinned CN", x); r < 1.4 {
			t.Errorf("%s: pinned CN ratio %.2f — the per-message path cost is not pinnable", x, r)
		}
	}
}

func TestFig4VMApproachesBM(t *testing.T) {
	f := figure(t, 4)
	// From 2xLarge on, VM ≈ BM (paper: "execution times become almost the
	// same"); generous tolerance for the quick config.
	for _, x := range []string{"2xLarge", "4xLarge", "8xLarge", "16xLarge"} {
		if r := ratio(t, f, "Pinned VM", x); r > 1.45 {
			t.Errorf("%s: VM ratio %.2f should be approaching BM", x, r)
		}
	}
}

func TestFig4TimesDecreaseWithCores(t *testing.T) {
	f := figure(t, 4)
	first := mean(t, f, "Vanilla BM", "xLarge")
	last := mean(t, f, "Vanilla BM", "16xLarge")
	if last >= first {
		t.Errorf("MPI must scale: %.3f → %.3f", first, last)
	}
}

// ---- Fig 5: WordPress --------------------------------------------------

func TestFig5PinnedCNLowest(t *testing.T) {
	f := figure(t, 5)
	for _, x := range f.XLabels {
		cnp := ratio(t, f, "Pinned CN", x)
		if cnp > 1.1 {
			t.Errorf("%s: pinned CN %.2f should be the lowest-overhead platform", x, cnp)
		}
		for _, s := range []string{"Vanilla VM", "Pinned VM", "Vanilla VMCN", "Pinned VMCN"} {
			if r := ratio(t, f, s, x); r < cnp-0.08 {
				t.Errorf("%s: %s (%.2f) beats pinned CN (%.2f)", x, s, r, cnp)
			}
		}
	}
}

func TestFig5VanillaCNWorstAtSmallConverges(t *testing.T) {
	f := figure(t, 5)
	small := ratio(t, f, "Vanilla CN", "xLarge")
	if small < 1.3 {
		t.Errorf("vanilla CN at xLarge %.2f; paper sees ≈2×", small)
	}
	big := ratio(t, f, "Vanilla CN", "16xLarge")
	if big > 1.25 {
		t.Errorf("vanilla CN must approach BM at 16xLarge: %.2f", big)
	}
	if small <= big {
		t.Errorf("vanilla CN PSO must shrink: %.2f → %.2f", small, big)
	}
}

func TestFig5PinnedVMBeatsVanillaVM(t *testing.T) {
	f := figure(t, 5)
	better := 0
	for _, x := range f.XLabels {
		if ratio(t, f, "Pinned VM", x) <= ratio(t, f, "Vanilla VM", x)+0.02 {
			better++
		}
	}
	// Paper: "pinned VM consistently imposes a lower overhead".
	if better < len(f.XLabels)-1 {
		t.Errorf("pinned VM better in only %d/%d columns", better, len(f.XLabels))
	}
}

func TestFig5VMCNNotWorseThanVM(t *testing.T) {
	f := figure(t, 5)
	worse := 0
	for _, x := range f.XLabels {
		if ratio(t, f, "Pinned VMCN", x) > ratio(t, f, "Pinned VM", x)+0.08 {
			worse++
		}
	}
	// Paper: VMCN imposes slightly *lower* overhead than VM for web loads.
	if worse > 1 {
		t.Errorf("pinned VMCN worse than pinned VM in %d columns", worse)
	}
}

// ---- Fig 6: Cassandra --------------------------------------------------

func TestFig6VanillaCNWorst(t *testing.T) {
	f := figure(t, 6)
	small := ratio(t, f, "Vanilla CN", "xLarge")
	if small < 1.35 {
		t.Errorf("vanilla CN at xLarge %.2f; paper sees ≥3.5×", small)
	}
	big := ratio(t, f, "Vanilla CN", "16xLarge")
	if big > 1.2 {
		t.Errorf("vanilla CN must converge by 16xLarge: %.2f", big)
	}
}

func TestFig6PinnedPlatformsCanBeatBM(t *testing.T) {
	f := figure(t, 6)
	// Paper §III-B4(ii): pinned CN (and pinned virtualized platforms
	// generally) at ×Large..4×Large offer execution times at or below BM.
	for _, x := range []string{"xLarge", "2xLarge", "4xLarge"} {
		if r := ratio(t, f, "Pinned CN", x); r > 1.05 {
			t.Errorf("%s: pinned CN %.2f should be ≤ BM under extreme IO", x, r)
		}
	}
}

func TestFig6PinningBenefitFadesAtLargeSizes(t *testing.T) {
	f := figure(t, 6)
	smallGap := ratio(t, f, "Vanilla CN", "xLarge") - ratio(t, f, "Pinned CN", "xLarge")
	bigGap := ratio(t, f, "Vanilla CN", "16xLarge") - ratio(t, f, "Pinned CN", "16xLarge")
	if smallGap <= bigGap {
		t.Errorf("pinning benefit must fade with size: gap %.2f → %.2f", smallGap, bigGap)
	}
}

func TestFig6VMBasedElevatedAtLargeSizes(t *testing.T) {
	f := figure(t, 6)
	// Paper §III-B4(iv): VM-based platforms ≥8×Large show overhead vs BM.
	for _, x := range []string{"8xLarge", "16xLarge"} {
		for _, s := range []string{"Vanilla VM", "Pinned VM"} {
			if r := ratio(t, f, s, x); r < 1.03 {
				t.Errorf("%s: %s ratio %.2f should show the VM tax", x, s, r)
			}
		}
	}
}

// ---- Fig 7: CHR hosts --------------------------------------------------

func TestFig7SameContainerSlowerOnBiggerHost(t *testing.T) {
	f := figure(t, 7)
	for _, s := range []string{"Vanilla CN", "Pinned CN"} {
		small := mean(t, f, s, "16 cores")
		big := mean(t, f, s, "112 cores")
		if big < small*1.2 {
			t.Errorf("%s: 112-core host %.2fs vs 16-core host %.2fs — CHR effect missing", s, big, small)
		}
	}
}

func TestFig7PinningDoesNotRescueLowCHR(t *testing.T) {
	f := figure(t, 7)
	v := mean(t, f, "Vanilla CN", "112 cores")
	p := mean(t, f, "Pinned CN", "112 cores")
	if diff := (v - p) / v; diff > 0.12 {
		t.Errorf("paper: no significant vanilla/pinned gap on the big host; got %.1f%%", diff*100)
	}
}

func TestFig7ContainerNearBMOnOwnHost(t *testing.T) {
	f := figure(t, 7)
	if r := ratio(t, f, "Vanilla CN", "16 cores"); r > 1.15 {
		t.Errorf("CHR=1 container should be near BM: %.2f", r)
	}
}

// ---- Fig 8: multitasking -----------------------------------------------

func TestFig8MultitaskingAmplifiesVanillaOverhead(t *testing.T) {
	f := figure(t, 8)
	v1 := mean(t, f, "Vanilla CN", "1 Large Task")
	v30 := mean(t, f, "Vanilla CN", "30 Small Tasks")
	p1 := mean(t, f, "Pinned CN", "1 Large Task")
	p30 := mean(t, f, "Pinned CN", "30 Small Tasks")
	if v30 < v1*1.4 {
		t.Errorf("vanilla CN must degrade with 30 processes: %.2f → %.2f", v1, v30)
	}
	if p30 > p1*1.35 {
		t.Errorf("pinned CN must degrade only mildly: %.2f → %.2f", p1, p30)
	}
	if v30 < p30*1.4 {
		t.Errorf("30-way vanilla (%.2f) must be far worse than pinned (%.2f)", v30, p30)
	}
	if v1 > p1*1.15 {
		t.Errorf("with one process the modes should be close: %.2f vs %.2f", v1, p1)
	}
}

// ---- cross-cutting -----------------------------------------------------

func TestRunFigureDispatch(t *testing.T) {
	if _, err := RunFigure(2, Config{}); err == nil {
		t.Fatal("figure 2 does not exist")
	}
	if _, err := RunFigure(9, Config{}); err == nil {
		t.Fatal("figure 9 does not exist")
	}
}

func TestDecomposeSplitsPTOFromPSO(t *testing.T) {
	f := figure(t, 3)
	ds := Decompose(f)
	if len(ds) != 6 { // 7 series minus baseline
		t.Fatalf("decompositions: %d", len(ds))
	}
	for _, d := range ds {
		switch d.Label {
		case "Pinned VM":
			if d.PTO < 1.6 {
				t.Errorf("VM PTO %.2f", d.PTO)
			}
			if d.PSO[0] > 0.4 {
				t.Errorf("VM should be PTO-dominated, PSO[0]=%.2f", d.PSO[0])
			}
		case "Vanilla VMCN":
			if d.PSO[0] < 0.5 {
				t.Errorf("VMCN at Large should be PSO-heavy, got %.2f", d.PSO[0])
			}
		}
	}
}

func TestInstanceTableAndLookups(t *testing.T) {
	if len(InstanceTypes) != 6 {
		t.Fatal("Table II has six instance types")
	}
	for _, it := range InstanceTypes {
		if it.MemGB != 4*it.Cores {
			t.Errorf("%s: Table II memory is 4 GB/core", it.Name)
		}
	}
	if it, ok := InstanceByName("4xLarge"); !ok || it.Cores != 16 {
		t.Fatal("lookup broken")
	}
	if _, ok := InstanceByName("petaLarge"); ok {
		t.Fatal("phantom instance")
	}
	span := Instances("xLarge", "4xLarge")
	if len(span) != 3 || span[0].Name != "xLarge" || span[2].Name != "4xLarge" {
		t.Fatalf("range: %v", span)
	}
}

func TestRenderers(t *testing.T) {
	f := figure(t, 3)
	var text, csv, breakdown bytes.Buffer
	f.RenderText(&text)
	if !strings.Contains(text.String(), "Pinned CN") || !strings.Contains(text.String(), "FIG3") {
		t.Fatalf("text render:\n%s", text.String())
	}
	f.RenderCSV(&csv)
	if lines := strings.Count(csv.String(), "\n"); lines != 1+7*4 {
		t.Fatalf("csv rows: %d", lines)
	}
	f.RenderBreakdown(&breakdown)
	if !strings.Contains(breakdown.String(), "useful") {
		t.Fatal("breakdown render")
	}
	var t1, t2, t3 bytes.Buffer
	RenderTable1(&t1)
	RenderTable2(&t2)
	RenderTable3(&t3)
	if !strings.Contains(t1.String(), "FFmpeg") ||
		!strings.Contains(t2.String(), "16xLarge") ||
		!strings.Contains(t3.String(), "VMCN") {
		t.Fatal("table renders")
	}
	ds := Decompose(f)
	var dec bytes.Buffer
	RenderDecomposition(&dec, f, ds)
	if !strings.Contains(dec.String(), "PTO") {
		t.Fatal("decomposition render")
	}
}

func TestSeedsReproduce(t *testing.T) {
	cfg := Config{Quick: true, Reps: 1, Seed: 777}
	a, err := RunFigure(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFigure(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for si := range a.Series {
		for ci := range a.Series[si].Cells {
			if a.Series[si].Cells[ci].Summary.Mean != b.Series[si].Cells[ci].Summary.Mean {
				t.Fatal("same seed must reproduce identical figures")
			}
		}
	}
}
